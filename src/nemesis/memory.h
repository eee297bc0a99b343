// Nemesis single-address-space memory model (§3.1).
//
// All domains share one 64-bit virtual address space; privacy and protection
// come from per-domain access rights on address ranges ("stretches"), not
// from separate translations. The allocator reproduces the paper's trick for
// amortising load-time relocation: the top 32 bits of a code stretch's
// address are derived from a 32-bit hash of the code, so re-executing the
// same binary reuses the same virtual address with high probability.
#ifndef PEGASUS_SRC_NEMESIS_MEMORY_H_
#define PEGASUS_SRC_NEMESIS_MEMORY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace pegasus::nemesis {

using VirtAddr = uint64_t;
using StretchId = uint64_t;

// Access rights a protection domain holds on a stretch.
struct AccessRights {
  bool read = false;
  bool write = false;
  bool execute = false;

  static AccessRights None() { return {}; }
  static AccessRights ReadOnly() { return {true, false, false}; }
  static AccessRights ReadWrite() { return {true, true, false}; }
};

// A contiguous range of the single address space, with backing storage.
// Stretches are created by the AddressSpace and shared between domains by
// granting rights; the backing bytes are common to every domain that maps it
// (that is the point of the single address space).
class Stretch {
 public:
  Stretch(StretchId id, VirtAddr base, size_t size);

  StretchId id() const { return id_; }
  VirtAddr base() const { return base_; }
  size_t size() const { return size_; }
  bool Contains(VirtAddr addr, size_t len = 1) const {
    return addr >= base_ && addr + len <= base_ + size_;
  }

  // Raw access to backing bytes; rights enforcement lives in ProtectionDomain.
  uint8_t* data() { return bytes_.data(); }
  const uint8_t* data() const { return bytes_.data(); }

 private:
  StretchId id_;
  VirtAddr base_;
  size_t size_;
  std::vector<uint8_t> bytes_;
};

// The machine-wide single address space.
class AddressSpace {
 public:
  AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // Allocates a stretch anywhere in the data region.
  Stretch* AllocateStretch(size_t size);

  // Allocates a stretch for the code image identified by `code_key`, placing
  // it at an address whose top 32 bits hash the key. If that slot is taken by
  // a *different* image, falls back to sequential placement (a hash
  // collision, which the paper accepts as rare). Re-allocating the same key
  // returns a stretch at the same base, modelling relocation-cache reuse.
  Stretch* AllocateCodeStretch(const std::string& code_key, size_t size);

  // True if the most recent AllocateCodeStretch call reused the hashed slot
  // (i.e. the relocation cache would have hit).
  bool last_code_placement_reused() const { return last_code_reused_; }

  bool Free(StretchId id);
  Stretch* Find(StretchId id);
  // Stretch containing `addr`, or nullptr.
  Stretch* StretchAt(VirtAddr addr);

 private:
  VirtAddr next_data_addr_;
  StretchId next_id_ = 1;
  std::map<StretchId, std::unique_ptr<Stretch>> by_id_;
  // base -> id, for address lookups.
  std::map<VirtAddr, StretchId> by_base_;
  // code_key -> base of the previously assigned slot.
  std::map<std::string, VirtAddr> code_slots_;
  bool last_code_reused_ = false;
};

// A protection domain: the set of rights its holder has over the shared
// address space. In Nemesis a schedulable Domain executes inside exactly one
// protection domain, but protection domains can outlive or be shared by
// library code, so they are separate objects here.
class ProtectionDomain {
 public:
  explicit ProtectionDomain(std::string name);

  const std::string& name() const { return name_; }

  void Grant(const Stretch* s, AccessRights rights);
  void Revoke(const Stretch* s);
  AccessRights RightsOn(const Stretch* s) const;

  // Checked access. Returns false (a protection fault) when the domain lacks
  // the right or the range leaves the stretch; fault count is recorded.
  bool Read(const Stretch* s, VirtAddr addr, uint8_t* out, size_t len);
  bool Write(Stretch* s, VirtAddr addr, const uint8_t* in, size_t len);

  uint64_t faults() const { return faults_; }

 private:
  std::string name_;
  std::map<StretchId, AccessRights> rights_;
  uint64_t faults_ = 0;
};

}  // namespace pegasus::nemesis

#endif  // PEGASUS_SRC_NEMESIS_MEMORY_H_
