#include "src/devices/compression.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace pegasus::dev {

namespace {

// Standard JPEG luminance quantisation table.
constexpr std::array<int, 64> kLuminanceQ = {
    16, 11, 10, 16, 24,  40,  51,  61,   // row 0
    12, 12, 14, 19, 26,  58,  60,  55,   //
    14, 13, 16, 24, 40,  57,  69,  56,   //
    14, 17, 22, 29, 51,  87,  80,  62,   //
    18, 22, 37, 56, 68,  109, 103, 77,   //
    24, 35, 55, 64, 81,  104, 113, 92,   //
    49, 64, 78, 87, 103, 121, 120, 101,  //
    72, 92, 95, 98, 112, 100, 103, 99,
};

// Zig-zag scan order for an 8x8 block.
constexpr std::array<int, 64> kZigZag = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,   //
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,  //
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,  //
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
};

// Quality in [1, 100] -> table scale factor, as in libjpeg.
int ScaleFor(int quality) {
  quality = std::clamp(quality, 1, 100);
  return quality < 50 ? 5000 / quality : 200 - quality * 2;
}

void ForwardDct(const double in[64], double out[64]) {
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      double sum = 0.0;
      for (int x = 0; x < 8; ++x) {
        for (int y = 0; y < 8; ++y) {
          sum += in[x * 8 + y] * std::cos((2 * x + 1) * u * M_PI / 16.0) *
                 std::cos((2 * y + 1) * v * M_PI / 16.0);
        }
      }
      const double cu = u == 0 ? M_SQRT1_2 : 1.0;
      const double cv = v == 0 ? M_SQRT1_2 : 1.0;
      out[u * 8 + v] = 0.25 * cu * cv * sum;
    }
  }
}

void InverseDct(const double in[64], double out[64]) {
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      double sum = 0.0;
      for (int u = 0; u < 8; ++u) {
        for (int v = 0; v < 8; ++v) {
          const double cu = u == 0 ? M_SQRT1_2 : 1.0;
          const double cv = v == 0 ? M_SQRT1_2 : 1.0;
          sum += cu * cv * in[u * 8 + v] * std::cos((2 * x + 1) * u * M_PI / 16.0) *
                 std::cos((2 * y + 1) * v * M_PI / 16.0);
        }
      }
      out[x * 8 + y] = 0.25 * sum;
    }
  }
}

}  // namespace

std::vector<uint8_t> CompressTile(const std::vector<uint8_t>& pixels, int quality) {
  const int scale = ScaleFor(quality);
  double block[64];
  for (int i = 0; i < 64; ++i) {
    block[i] = static_cast<double>(pixels[static_cast<size_t>(i)]) - 128.0;
  }
  double freq[64];
  ForwardDct(block, freq);

  // Quantise and zig-zag.
  std::array<int16_t, 64> q{};
  for (int i = 0; i < 64; ++i) {
    int qv = (kLuminanceQ[static_cast<size_t>(i)] * scale + 50) / 100;
    qv = std::clamp(qv, 1, 255 * 8);
    q[static_cast<size_t>(i)] =
        static_cast<int16_t>(std::lround(freq[i] / static_cast<double>(qv)));
  }

  // Entropy-code the zig-zag sequence as (run-of-zeros, value) tokens: one
  // run byte followed by the value as a zig-zag varint (1 byte for |v| < 64,
  // which covers almost every quantised coefficient). The trailing zero run
  // is implicit: the decoder pads with zeros.
  std::vector<uint8_t> out;
  out.push_back(static_cast<uint8_t>(quality));
  int run = 0;
  for (int i = 0; i < 64; ++i) {
    const int16_t v = q[static_cast<size_t>(kZigZag[static_cast<size_t>(i)])];
    if (v == 0 && run < 255) {
      ++run;
      continue;
    }
    out.push_back(static_cast<uint8_t>(run));
    // Zig-zag sign fold, in unsigned arithmetic (shifting a negative
    // int16_t left is undefined); the bit pattern is identical mod 2^16.
    uint16_t u = static_cast<uint16_t>(
        (static_cast<uint16_t>(v) << 1) ^ static_cast<uint16_t>(v >> 15));
    while (u >= 0x80) {
      out.push_back(static_cast<uint8_t>(u | 0x80));
      u >>= 7;
    }
    out.push_back(static_cast<uint8_t>(u));
    run = 0;
  }
  return out;
}

std::optional<std::vector<uint8_t>> DecompressTile(const std::vector<uint8_t>& data) {
  if (data.empty()) {
    return std::nullopt;
  }
  const int quality = data[0];
  const int scale = ScaleFor(quality);
  std::array<int16_t, 64> zz{};
  size_t pos = 1;
  int idx = 0;
  while (pos < data.size() && idx < 64) {
    const int run = data[pos++];
    // Zig-zag varint value.
    uint16_t u = 0;
    int shift = 0;
    bool terminated = false;
    while (pos < data.size() && shift <= 14) {
      const uint8_t byte = data[pos++];
      u |= static_cast<uint16_t>(byte & 0x7F) << shift;
      shift += 7;
      if ((byte & 0x80) == 0) {
        terminated = true;
        break;
      }
    }
    if (!terminated) {
      return std::nullopt;
    }
    const auto value = static_cast<int16_t>((u >> 1) ^ static_cast<uint16_t>(-(u & 1)));
    idx += run;
    if (idx >= 64) {
      return std::nullopt;
    }
    zz[static_cast<size_t>(idx)] = value;
    ++idx;
  }
  if (pos != data.size()) {
    return std::nullopt;
  }

  // De-zig-zag: scan entry i corresponds to natural position kZigZag[i].
  double natural[64] = {0};
  for (int i = 0; i < 64; ++i) {
    int qv = (kLuminanceQ[static_cast<size_t>(kZigZag[static_cast<size_t>(i)])] * scale + 50) /
             100;
    qv = std::clamp(qv, 1, 255 * 8);
    natural[kZigZag[static_cast<size_t>(i)]] =
        static_cast<double>(zz[static_cast<size_t>(i)]) * static_cast<double>(qv);
  }
  double block[64];
  InverseDct(natural, block);
  std::vector<uint8_t> pixels(64);
  for (int i = 0; i < 64; ++i) {
    pixels[static_cast<size_t>(i)] =
        static_cast<uint8_t>(std::clamp(std::lround(block[i] + 128.0), 0L, 255L));
  }
  return pixels;
}

void CompressTileInPlace(Tile* tile, CompressionMode mode, int quality) {
  if (mode == CompressionMode::kRaw || tile->compressed) {
    return;
  }
  tile->data = CompressTile(tile->data, quality);
  tile->compressed = true;
}

const uint8_t* RawTilePixels(const Tile& tile, std::vector<uint8_t>* decoded) {
  if (!tile.compressed) {
    return tile.data.size() == kTilePixels ? tile.data.data() : nullptr;
  }
  auto pixels = DecompressTile(tile.data);
  if (!pixels.has_value()) {
    return nullptr;
  }
  *decoded = std::move(*pixels);
  return decoded->data();
}

bool DecompressTileInPlace(Tile* tile) {
  std::vector<uint8_t> decoded;
  if (RawTilePixels(*tile, &decoded) == nullptr) {
    return false;
  }
  if (tile->compressed) {
    tile->data = std::move(decoded);
    tile->compressed = false;
  }
  return true;
}

}  // namespace pegasus::dev
