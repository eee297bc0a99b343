// Synthetic video content (the stand-in for a CCD looking at the world).
//
// Deterministic moving-pattern frames: smooth gradients with a moving bright
// disc. Smooth content compresses well under the MJPEG codec, textured noise
// poorly — the mix is tunable so bandwidth experiments can sweep content
// complexity.
#ifndef PEGASUS_SRC_DEVICES_FRAME_SOURCE_H_
#define PEGASUS_SRC_DEVICES_FRAME_SOURCE_H_

#include <cstdint>

#include "src/devices/tile.h"
#include "src/sim/random.h"

namespace pegasus::dev {

class FrameSource {
 public:
  // `noise` in [0, 1]: fraction of per-pixel random texture mixed into the
  // smooth pattern (0 = clean synthetic scene, 1 = white noise).
  FrameSource(int width, int height, double noise = 0.1, uint64_t seed = 42);

  int width() const { return width_; }
  int height() const { return height_; }

  // Produces frame number `n`: deterministic in n and in the noise draws of
  // the frames rendered before it. Costs W + H - 1 sines (one per
  // anti-diagonal of the gradient) and, with noise, one draw per pixel.
  Frame Render(uint32_t frame_no);

 private:
  int width_;
  int height_;
  double noise_;
  sim::Rng rng_;
};

}  // namespace pegasus::dev

#endif  // PEGASUS_SRC_DEVICES_FRAME_SOURCE_H_
