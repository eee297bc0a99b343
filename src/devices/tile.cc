#include "src/devices/tile.h"

#include <algorithm>

#include "src/atm/wire.h"

namespace pegasus::dev {

std::vector<uint8_t> TilePacket::Serialize() const {
  atm::WireWriter w;
  // Tile bodies first; the trailer (coordinates + timestamp) follows, as on
  // the real camera where the trailer closes the AAL5 payload.
  w.PutU16(static_cast<uint16_t>(tiles.size()));
  for (const Tile& t : tiles) {
    w.PutU8(t.compressed ? 1 : 0);
    w.PutBytes(t.data);
  }
  for (const Tile& t : tiles) {
    w.PutU16(t.x);
    w.PutU16(t.y);
  }
  w.PutU32(frame_no);
  w.PutI64(capture_ts);
  return w.Take();
}

std::optional<TilePacket> TilePacket::Parse(const std::vector<uint8_t>& bytes) {
  atm::WireReader r(bytes);
  TilePacket packet;
  const uint16_t count = r.GetU16();
  packet.tiles.resize(count);
  for (uint16_t i = 0; i < count; ++i) {
    packet.tiles[i].compressed = r.GetU8() != 0;
    packet.tiles[i].data = r.GetBytes();
  }
  for (uint16_t i = 0; i < count; ++i) {
    packet.tiles[i].x = r.GetU16();
    packet.tiles[i].y = r.GetU16();
  }
  packet.frame_no = r.GetU32();
  packet.capture_ts = r.GetI64();
  if (!r.ok()) {
    return std::nullopt;
  }
  return packet;
}

Tile Frame::ExtractTile(int tx, int ty) const {
  Tile tile;
  tile.x = static_cast<uint16_t>(tx);
  tile.y = static_cast<uint16_t>(ty);
  tile.data.resize(kTilePixels, 0);
  // Copy the tile's rows clipped to the frame; the rest stays zero.
  const int rows = std::min(kTileDim, height - ty);
  const int cols = std::min(kTileDim, width - tx);
  for (int row = 0; row < rows && cols > 0; ++row) {
    std::copy_n(pixels.data() + static_cast<size_t>(ty + row) * width + tx, cols,
                tile.data.data() + static_cast<size_t>(row) * kTileDim);
  }
  return tile;
}

void Frame::BlitTile(const Tile& tile) {
  for (int row = 0; row < kTileDim; ++row) {
    for (int col = 0; col < kTileDim; ++col) {
      const int px = tile.x + col;
      const int py = tile.y + row;
      if (px >= 0 && px < width && py >= 0 && py < height) {
        set(px, py, tile.data[static_cast<size_t>(row) * kTileDim + col]);
      }
    }
  }
}

}  // namespace pegasus::dev
