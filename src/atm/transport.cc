#include "src/atm/transport.h"

namespace pegasus::atm {

MessageTransport::MessageTransport(Endpoint* endpoint) : endpoint_(endpoint) {
  endpoint_->set_cell_handler([this](const Cell* cells, size_t count) { OnBurst(cells, count); });
}

void MessageTransport::SetHandler(Vci vci, MessageHandler handler) {
  handlers_[vci] = std::move(handler);
}

void MessageTransport::ClearHandler(Vci vci) { handlers_.erase(vci); }

void MessageTransport::SetDefaultHandler(MessageHandler handler) {
  default_handler_ = std::move(handler);
}

void MessageTransport::Send(Vci vci, const std::vector<uint8_t>& message, int64_t pace_bps) {
  ++messages_sent_;
  endpoint_->SendFrame(vci, message, pace_bps);
}

uint64_t MessageTransport::reassembly_errors() const {
  uint64_t n = 0;
  for (const auto& [vci, rx] : rx_) {
    (void)vci;
    n += rx.reassembler.crc_errors() + rx.reassembler.length_errors();
  }
  return n;
}

void MessageTransport::Dispatch(Vci vci, std::vector<uint8_t> sdu, sim::TimeNs first_cell_at) {
  ++messages_received_;
  auto it = handlers_.find(vci);
  if (it != handlers_.end()) {
    it->second(vci, std::move(sdu), first_cell_at);
  } else if (default_handler_) {
    default_handler_(vci, std::move(sdu), first_cell_at);
  }
}

void MessageTransport::OnBurst(const Cell* cells, size_t count) {
  size_t i = 0;
  while (i < count) {
    const Vci vci = cells[i].vci;
    VcRx& rx = rx_[vci];
    if (!rx.in_frame) {
      rx.in_frame = true;
      rx.frame_first_cell_at = cells[i].created_at;
    }
    // Maximal same-VC run with no frame boundary: one bulk append.
    size_t j = i;
    while (j < count && cells[j].vci == vci && !cells[j].end_of_frame) {
      ++j;
    }
    if (j > i) {
      rx.reassembler.IngestSpan(cells + i, j - i);
    }
    if (j < count && cells[j].vci == vci) {
      // The run's end-of-frame cell closes the CS-PDU.
      auto sdu = rx.reassembler.Push(cells[j]);
      rx.in_frame = false;
      const sim::TimeNs first_at = rx.frame_first_cell_at;
      ++j;
      if (sdu.has_value()) {
        Dispatch(vci, std::move(*sdu), first_at);
      }
    }
    i = j;
  }
}

}  // namespace pegasus::atm
