// Lowest-free VCI allocation.
//
// Signalling takes a free VCI on every hop's input port and at each sink
// when a VC opens, and frees them when it closes (§2.2). The numbering is
// lowest-free: an open gets the smallest data VCI (at or above
// kVciFirstData) that nothing holds, so a freed VCI is the next one handed
// out.
#ifndef PEGASUS_SRC_ATM_VCI_ALLOCATOR_H_
#define PEGASUS_SRC_ATM_VCI_ALLOCATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/atm/cell.h"

namespace pegasus::atm {

// The held data VCIs as a bitmap, bit i for VCI kVciFirstData + i, with a
// hint to the first word that is not full. The lowest free VCI is read from
// that one word. Holding a VCI moves the hint past every word it leaves
// full, so after a release below the hint the next hold re-scans the full
// words above it: 64 VCIs per load, never one VCI at a time. VCIs below
// kVciFirstData are never handed out and not tracked, so holding or
// releasing one does nothing.
class VciAllocator {
 public:
  // The lowest data VCI not held. It stays free until Hold, so asking again
  // first returns the same VCI.
  Vci LowestFree() const {
    const int bit = first_open_ < words_.size() ? __builtin_ctzll(~words_[first_open_]) : 0;
    return kVciFirstData + static_cast<Vci>(first_open_ * 64 + static_cast<size_t>(bit));
  }

  void Hold(Vci vci) {
    if (vci < kVciFirstData) {
      return;
    }
    const size_t i = vci - kVciFirstData;
    if (i / 64 >= words_.size()) {
      words_.resize(i / 64 + 1, 0);
    }
    words_[i / 64] |= uint64_t{1} << (i % 64);
    while (first_open_ < words_.size() && words_[first_open_] == ~uint64_t{0}) {
      ++first_open_;
    }
  }

  // Releasing a VCI that is not held is a no-op.
  void Release(Vci vci) {
    if (vci < kVciFirstData) {
      return;
    }
    const size_t i = vci - kVciFirstData;
    if (i / 64 >= words_.size()) {
      return;
    }
    words_[i / 64] &= ~(uint64_t{1} << (i % 64));
    first_open_ = std::min(first_open_, i / 64);
  }

 private:
  std::vector<uint64_t> words_;
  // Every word below this one is full.
  size_t first_open_ = 0;
};

}  // namespace pegasus::atm

#endif  // PEGASUS_SRC_ATM_VCI_ALLOCATOR_H_
