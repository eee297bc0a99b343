#include "src/devices/display.h"

#include <algorithm>
#include <vector>

namespace pegasus::dev {

AtmDisplay::AtmDisplay(sim::Simulator* sim, atm::Endpoint* endpoint, int width, int height)
    : sim_(sim),
      transport_(endpoint),
      width_(width),
      height_(height),
      framebuffer_(static_cast<size_t>(width) * height, 0),
      owner_(static_cast<size_t>(width) * height, atm::kVciUnassigned) {
  transport_.SetDefaultHandler([this](atm::Vci vci, std::vector<uint8_t> sdu, sim::TimeNs) {
    auto packet = TilePacket::Parse(sdu);
    if (!packet.has_value()) {
      ++decode_errors_;
      return;
    }
    OnPacket(vci, *packet);
  });
}

void AtmDisplay::SetDescriptor(atm::Vci vci, const WindowDescriptor& desc) {
  descriptors_[vci] = desc;
  ++descriptor_updates_;
  RecomputeOwnership();
}

bool AtmDisplay::RemoveDescriptor(atm::Vci vci) {
  if (descriptors_.erase(vci) == 0) {
    return false;
  }
  ++descriptor_updates_;
  RecomputeOwnership();
  return true;
}

const WindowDescriptor* AtmDisplay::GetDescriptor(atm::Vci vci) const {
  auto it = descriptors_.find(vci);
  return it == descriptors_.end() ? nullptr : &it->second;
}

void AtmDisplay::RecomputeOwnership() {
  // Per-pixel owner: the visible window with the highest z covering it. This
  // mirrors the hardware's descriptor match; cost is charged to descriptor
  // updates, not to the media path.
  std::fill(owner_.begin(), owner_.end(), atm::kVciUnassigned);
  std::vector<std::pair<atm::Vci, const WindowDescriptor*>> ordered;
  ordered.reserve(descriptors_.size());
  for (const auto& [vci, desc] : descriptors_) {
    if (desc.visible) {
      ordered.emplace_back(vci, &desc);
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.second->z < b.second->z; });
  for (const auto& [vci, desc] : ordered) {
    const int x0 = std::max(0, desc->x);
    const int y0 = std::max(0, desc->y);
    const int x1 = std::min(width_, desc->x + desc->width);
    const int y1 = std::min(height_, desc->y + desc->height);
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) {
        owner_[static_cast<size_t>(y) * width_ + x] = vci;
      }
    }
  }
}

void AtmDisplay::OnPacket(atm::Vci vci, const TilePacket& packet) {
  auto desc_it = descriptors_.find(vci);
  if (desc_it == descriptors_.end() || !desc_it->second.visible) {
    tiles_clipped_ += static_cast<int64_t>(packet.tiles.size());
    return;
  }
  const WindowDescriptor& desc = desc_it->second;
  tile_latency_.Add(static_cast<double>(sim_->now() - packet.capture_ts));
  if (packet_cb_) {
    packet_cb_(vci, packet.frame_no, packet.capture_ts);
  }

  // Frame-completion tracking: a new frame number closes the previous frame.
  FrameTrack& track = frame_track_[vci];
  if (track.any && packet.frame_no != track.frame_no) {
    ++frames_completed_;
    track.any = false;
  }
  track.frame_no = packet.frame_no;
  track.any = true;

  std::vector<uint8_t> decoded;  // the current tile's pixels when compressed
  for (const Tile& tile : packet.tiles) {
    // Raw tiles blit straight from the packet.
    const uint8_t* pixels = RawTilePixels(tile, &decoded);
    if (pixels == nullptr) {
      ++decode_errors_;
      continue;
    }
    // Clip against the window, then blit only pixels this VC owns.
    if (tile.x + kTileDim <= 0 || tile.y + kTileDim <= 0 || tile.x >= desc.width ||
        tile.y >= desc.height) {
      ++tiles_clipped_;
      continue;
    }
    ++tiles_blitted_;
    // The tile's rows and columns inside both the window and the screen.
    const int sx0 = desc.x + tile.x;  // screen position of the tile's origin
    const int sy0 = desc.y + tile.y;
    const int col_begin = std::max(0, -sx0);
    const int col_end = std::min({kTileDim, desc.width - tile.x, width_ - sx0});
    const int row_begin = std::max(0, -sy0);
    const int row_end = std::min({kTileDim, desc.height - tile.y, height_ - sy0});
    for (int row = row_begin; row < row_end; ++row) {
      const size_t screen_row = static_cast<size_t>(sy0 + row) * width_;
      const uint8_t* src = pixels + static_cast<size_t>(row) * kTileDim;
      for (int col = col_begin; col < col_end; ++col) {
        const size_t at = screen_row + static_cast<size_t>(sx0 + col);
        if (owner_[at] != vci) {
          continue;  // occluded by a higher window
        }
        framebuffer_[at] = src[col];
        ++pixels_drawn_;
      }
    }
  }
}

WindowManager::WindowManager(AtmDisplay* display) : display_(display) {}

void WindowManager::CreateWindow(atm::Vci vci, int x, int y, int w, int h) {
  WindowDescriptor desc;
  desc.x = x;
  desc.y = y;
  desc.width = w;
  desc.height = h;
  desc.z = next_z_++;
  display_->SetDescriptor(vci, desc);
  ++operations_;
}

bool WindowManager::MoveWindow(atm::Vci vci, int x, int y) {
  const WindowDescriptor* cur = display_->GetDescriptor(vci);
  if (cur == nullptr) {
    return false;
  }
  WindowDescriptor desc = *cur;
  desc.x = x;
  desc.y = y;
  display_->SetDescriptor(vci, desc);
  ++operations_;
  return true;
}

bool WindowManager::ResizeWindow(atm::Vci vci, int w, int h) {
  const WindowDescriptor* cur = display_->GetDescriptor(vci);
  if (cur == nullptr) {
    return false;
  }
  WindowDescriptor desc = *cur;
  desc.width = w;
  desc.height = h;
  display_->SetDescriptor(vci, desc);
  ++operations_;
  return true;
}

bool WindowManager::RaiseWindow(atm::Vci vci) {
  const WindowDescriptor* cur = display_->GetDescriptor(vci);
  if (cur == nullptr) {
    return false;
  }
  WindowDescriptor desc = *cur;
  desc.z = next_z_++;
  display_->SetDescriptor(vci, desc);
  ++operations_;
  return true;
}

bool WindowManager::LowerWindow(atm::Vci vci) {
  const WindowDescriptor* cur = display_->GetDescriptor(vci);
  if (cur == nullptr) {
    return false;
  }
  WindowDescriptor desc = *cur;
  desc.z = 0;
  display_->SetDescriptor(vci, desc);
  ++operations_;
  return true;
}

bool WindowManager::IconifyWindow(atm::Vci vci) {
  const WindowDescriptor* cur = display_->GetDescriptor(vci);
  if (cur == nullptr) {
    return false;
  }
  WindowDescriptor desc = *cur;
  desc.visible = false;
  display_->SetDescriptor(vci, desc);
  ++operations_;
  return true;
}

bool WindowManager::RestoreWindow(atm::Vci vci) {
  const WindowDescriptor* cur = display_->GetDescriptor(vci);
  if (cur == nullptr) {
    return false;
  }
  WindowDescriptor desc = *cur;
  desc.visible = true;
  display_->SetDescriptor(vci, desc);
  ++operations_;
  return true;
}

bool WindowManager::DestroyWindow(atm::Vci vci) {
  if (!display_->RemoveDescriptor(vci)) {
    return false;
  }
  ++operations_;
  return true;
}

}  // namespace pegasus::dev
