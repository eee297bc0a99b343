// The ATM display (§2.1, Figure 3).
//
// "The ATM display implements a single primitive, that of displaying
// arriving pixel tiles on incoming virtual circuits to windows on the
// screen. The virtual-circuit identifier is used as an index into a table of
// window descriptors; each window descriptor has an x and y offset ... and
// clipping information. By manipulation of these contexts, a window manager
// can control which virtual channel, and thus which process, can access the
// different pixels of the screen."
//
// Tiles are fixed-size bit-blits, so graphics and video are the same thing
// to the display; the window system's multiplexing code "can largely
// disappear" — the descriptor table *is* the multiplexer. The WindowManager
// below moves/resizes/raises windows purely by editing descriptors, never by
// copying pixels, which experiment E14 quantifies.
#ifndef PEGASUS_SRC_DEVICES_DISPLAY_H_
#define PEGASUS_SRC_DEVICES_DISPLAY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/atm/endpoint.h"
#include "src/atm/transport.h"
#include "src/devices/compression.h"
#include "src/devices/tile.h"
#include "src/sim/event_queue.h"
#include "src/sim/stats.h"

namespace pegasus::dev {

// A window descriptor: where a virtual circuit's tiles may land.
struct WindowDescriptor {
  int x = 0;  // screen position of the window's origin
  int y = 0;
  int width = 0;  // clipping rectangle (window size)
  int height = 0;
  int z = 0;        // stacking order; higher is nearer the viewer
  bool visible = true;  // iconised windows are invisible but keep their VC
};

class AtmDisplay {
 public:
  // Invoked for every tile packet rendered; gives synchronisation code the
  // media timestamp of what just hit the screen (E13/lip-sync).
  using PacketCallback =
      std::function<void(atm::Vci vci, uint32_t frame_no, sim::TimeNs capture_ts)>;

  AtmDisplay(sim::Simulator* sim, atm::Endpoint* endpoint, int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }

  void set_packet_callback(PacketCallback cb) { packet_cb_ = std::move(cb); }

  // --- Window-descriptor table (the window manager's interface) ---
  void SetDescriptor(atm::Vci vci, const WindowDescriptor& desc);
  bool RemoveDescriptor(atm::Vci vci);
  const WindowDescriptor* GetDescriptor(atm::Vci vci) const;
  int64_t descriptor_updates() const { return descriptor_updates_; }

  // --- screen state ---
  uint8_t PixelAt(int x, int y) const {
    return framebuffer_[static_cast<size_t>(y) * width_ + x];
  }
  // VCI owning this pixel (kVciUnassigned = background).
  atm::Vci OwnerAt(int x, int y) const {
    return owner_[static_cast<size_t>(y) * width_ + x];
  }

  // --- statistics ---
  int64_t tiles_blitted() const { return tiles_blitted_; }
  int64_t tiles_clipped() const { return tiles_clipped_; }
  int64_t pixels_drawn() const { return pixels_drawn_; }
  uint64_t decode_errors() const { return decode_errors_; }
  // Capture-to-blit latency of every tile packet (ns) — the E01 metric.
  const sim::Summary& tile_latency() const { return tile_latency_; }
  uint32_t frames_completed() const { return frames_completed_; }

 private:
  void OnPacket(atm::Vci vci, const TilePacket& packet);
  void RecomputeOwnership();

  sim::Simulator* sim_;
  // AAL5 reassembly of every VC the endpoint receives; each completed SDU
  // is parsed as a tile packet.
  atm::MessageTransport transport_;
  int width_;
  int height_;
  std::vector<uint8_t> framebuffer_;
  std::vector<atm::Vci> owner_;
  std::map<atm::Vci, WindowDescriptor> descriptors_;
  // Per-VCI frame tracking for the completed-frame count.
  struct FrameTrack {
    uint32_t frame_no = 0;
    bool any = false;
  };
  std::map<atm::Vci, FrameTrack> frame_track_;
  PacketCallback packet_cb_;

  int64_t descriptor_updates_ = 0;
  int64_t tiles_blitted_ = 0;
  int64_t tiles_clipped_ = 0;
  int64_t pixels_drawn_ = 0;
  uint64_t decode_errors_ = 0;
  sim::Summary tile_latency_;
  uint32_t frames_completed_ = 0;
};

// The window manager: a control process that owns the descriptor table. All
// operations are descriptor edits; no pixel ever moves through it.
class WindowManager {
 public:
  explicit WindowManager(AtmDisplay* display);

  // Creates a window for `vci` at (x, y) of size w*h, on top.
  void CreateWindow(atm::Vci vci, int x, int y, int w, int h);
  bool MoveWindow(atm::Vci vci, int x, int y);
  bool ResizeWindow(atm::Vci vci, int w, int h);
  bool RaiseWindow(atm::Vci vci);
  bool LowerWindow(atm::Vci vci);
  bool IconifyWindow(atm::Vci vci);
  bool RestoreWindow(atm::Vci vci);
  bool DestroyWindow(atm::Vci vci);

  int64_t operations() const { return operations_; }

 private:
  AtmDisplay* display_;
  int next_z_ = 1;
  int64_t operations_ = 0;
};

}  // namespace pegasus::dev

#endif  // PEGASUS_SRC_DEVICES_DISPLAY_H_
