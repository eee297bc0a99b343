#include "src/devices/frame_source.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace pegasus::dev {

FrameSource::FrameSource(int width, int height, double noise, uint64_t seed)
    : width_(width), height_(height), noise_(noise), rng_(seed) {}

Frame FrameSource::Render(uint32_t frame_no) {
  Frame frame(width_, height_);
  frame.frame_no = frame_no;
  // A diagonal gradient drifting over time plus a circling bright disc.
  const double phase = frame_no * 0.12;
  const double cx = width_ / 2.0 + std::cos(phase) * width_ / 4.0;
  const double cy = height_ / 2.0 + std::sin(phase) * height_ / 4.0;
  const double radius = std::min(width_, height_) / 6.0;
  // The gradient depends only on the anti-diagonal k = x + y.
  const int diagonals = std::max(width_ + height_ - 1, 0);
  std::vector<double> gradient(static_cast<size_t>(diagonals));
  for (int k = 0; k < diagonals; ++k) {
    gradient[static_cast<size_t>(k)] = 96.0 + 48.0 * std::sin(k * 0.02 + phase);
  }
  uint8_t* out = frame.pixels.data();
  for (int y = 0; y < height_; ++y) {
    const double* diagonal = gradient.data() + y;
    for (int x = 0; x < width_; ++x) {
      double v = diagonal[x];
      const double dx = x - cx;
      const double dy = y - cy;
      if (dx * dx + dy * dy < radius * radius) {
        v += 96.0;
      }
      if (noise_ > 0.0) {
        v = (1.0 - noise_) * v + noise_ * static_cast<double>(rng_.UniformInt(0, 255));
      }
      *out++ = static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
    }
  }
  return frame;
}

}  // namespace pegasus::dev
