// Motion-JPEG-style tile compression (§2.1).
//
// "Cameras can be equipped with one or more compression devices. ...
// Currently, both raw video and motion JPEG are supported." This is a real
// (if miniature) transform codec over 8x8 tiles: DCT-II, quantisation with
// the JPEG luminance table scaled by a quality factor, zig-zag scan and
// zero run-length coding. It is lossy and content-dependent, like the real
// thing, so bandwidth experiments (E02) measure honest compressed sizes.
#ifndef PEGASUS_SRC_DEVICES_COMPRESSION_H_
#define PEGASUS_SRC_DEVICES_COMPRESSION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/devices/tile.h"

namespace pegasus::dev {

enum class CompressionMode : uint8_t {
  kRaw = 0,
  kMotionJpeg = 1,
};

// Compresses 64 raw pixels into a variable-length byte string. `quality` in
// [1, 100]; higher is better fidelity and larger output.
std::vector<uint8_t> CompressTile(const std::vector<uint8_t>& pixels, int quality);

// Inverse of CompressTile. Returns 64 pixels, or nullopt on malformed input.
std::optional<std::vector<uint8_t>> DecompressTile(const std::vector<uint8_t>& data);

// Applies the camera's configured compression to a raw tile (in place).
void CompressTileInPlace(Tile* tile, CompressionMode mode, int quality);
// A tile's 64 raw pixels: its own data when raw, or `decoded` filled from the
// compressed data. Returns nullptr on corrupt data: a raw tile that is not
// exactly 64 bytes, or malformed compressed data.
const uint8_t* RawTilePixels(const Tile& tile, std::vector<uint8_t>* decoded);
// Ensures a tile is raw pixels, decompressing if necessary. Returns false on
// corrupt data (the AAL5 CRC normally catches this first).
bool DecompressTileInPlace(Tile* tile);

}  // namespace pegasus::dev

#endif  // PEGASUS_SRC_DEVICES_COMPRESSION_H_
