// MSNA-style message transport over AAL5.
//
// The paper layers its RPC on MSNA, the Multi-Service Network Architecture
// (§4): a protocol hierarchy for ATM that carries both RPC traffic and
// continuous media. This transport provides the messaging half — framed,
// per-VC message delivery over AAL5 — while continuous media go straight to
// the cell interface for minimal latency.
#ifndef PEGASUS_SRC_ATM_TRANSPORT_H_
#define PEGASUS_SRC_ATM_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/atm/aal5.h"
#include "src/atm/endpoint.h"

namespace pegasus::atm {

class MessageTransport {
 public:
  // `first_cell_at` is the source timestamp of the frame's first cell, for
  // end-to-end latency measurement.
  using MessageHandler =
      std::function<void(Vci vci, std::vector<uint8_t> message, sim::TimeNs first_cell_at)>;

  // Takes over the endpoint's cell handler: every delivered train goes
  // through OnBurst. The endpoint must outlive this.
  explicit MessageTransport(Endpoint* endpoint);

  MessageTransport(const MessageTransport&) = delete;
  MessageTransport& operator=(const MessageTransport&) = delete;

  Endpoint* endpoint() const { return endpoint_; }

  // Per-VCI dispatch; unmatched VCIs fall back to the default handler.
  void SetHandler(Vci vci, MessageHandler handler);
  void ClearHandler(Vci vci);
  void SetDefaultHandler(MessageHandler handler);

  // Sends one message on `vci`, optionally paced to `pace_bps`.
  void Send(Vci vci, const std::vector<uint8_t>& message, int64_t pace_bps = 0);

  uint64_t messages_received() const { return messages_received_; }
  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t reassembly_errors() const;

 private:
  // Ingests a delivered train: maximal same-VC runs with no frame boundary
  // are bulk-appended by the reassembler in one go, and each end-of-frame
  // cell closes its CS-PDU through Aal5Reassembler::Push — cell-for-cell
  // equivalent to pushing every cell on its own.
  void OnBurst(const Cell* cells, size_t count);
  void Dispatch(Vci vci, std::vector<uint8_t> sdu, sim::TimeNs first_cell_at);

  Endpoint* endpoint_;
  std::map<Vci, MessageHandler> handlers_;
  MessageHandler default_handler_;
  struct VcRx {
    Aal5Reassembler reassembler;
    sim::TimeNs frame_first_cell_at = 0;
    bool in_frame = false;
  };
  std::map<Vci, VcRx> rx_;
  uint64_t messages_received_ = 0;
  uint64_t messages_sent_ = 0;
};

}  // namespace pegasus::atm

#endif  // PEGASUS_SRC_ATM_TRANSPORT_H_
