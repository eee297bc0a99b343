// Tests for the ATM devices: tiles, codec, camera, display, audio, control,
// synchronisation (§2).
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "src/atm/network.h"
#include "src/devices/audio.h"
#include "src/devices/camera.h"
#include "src/devices/compression.h"
#include "src/devices/control.h"
#include "src/devices/display.h"
#include "src/devices/frame_source.h"
#include "src/devices/sync.h"
#include "src/devices/tile.h"

namespace pegasus::dev {
namespace {

using sim::Milliseconds;
using sim::Seconds;

TEST(TileTest, PacketSerializationRoundTrip) {
  TilePacket packet;
  packet.frame_no = 42;
  packet.capture_ts = Milliseconds(123);
  for (int i = 0; i < 3; ++i) {
    Tile t;
    t.x = static_cast<uint16_t>(i * 8);
    t.y = 16;
    t.data.assign(kTilePixels, static_cast<uint8_t>(i));
    packet.tiles.push_back(t);
  }
  auto parsed = TilePacket::Parse(packet.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->frame_no, 42u);
  EXPECT_EQ(parsed->capture_ts, Milliseconds(123));
  ASSERT_EQ(parsed->tiles.size(), 3u);
  EXPECT_EQ(parsed->tiles[2].x, 16);
  EXPECT_EQ(parsed->tiles[2].data[0], 2);
}

TEST(TileTest, ParseRejectsGarbage) {
  EXPECT_FALSE(TilePacket::Parse({1, 2, 3}).has_value());
  EXPECT_FALSE(TilePacket::Parse({}).has_value());
}

TEST(TileTest, ExtractAndBlitRoundTrip) {
  Frame frame(32, 32);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      frame.set(x, y, static_cast<uint8_t>(x * 7 + y));
    }
  }
  Tile tile = frame.ExtractTile(8, 16);
  Frame out(32, 32);
  out.BlitTile(tile);
  for (int row = 0; row < 8; ++row) {
    for (int col = 0; col < 8; ++col) {
      EXPECT_EQ(out.at(8 + col, 16 + row), frame.at(8 + col, 16 + row));
    }
  }
  EXPECT_EQ(out.at(0, 0), 0);  // untouched
}

TEST(TileTest, ExtractTileMatchesPerPixelReference) {
  // Ragged frames: neither side is a multiple of the tile size, so the last
  // column and row of tiles hang off the edge, by 7 pixels and by 1, and
  // must zero-fill.
  for (const auto& [w, h] : {std::pair{161, 97}, std::pair{167, 103}}) {
    SCOPED_TRACE(testing::Message() << w << "x" << h);
    Frame frame(w, h);
    for (int y = 0; y < frame.height; ++y) {
      for (int x = 0; x < frame.width; ++x) {
        frame.set(x, y, static_cast<uint8_t>(x * 31 + y * 17 + 1));
      }
    }
    int edge_tiles = 0;
    for (int ty = 0; ty < frame.height; ty += kTileDim) {
      for (int tx = 0; tx < frame.width; tx += kTileDim) {
        const Tile tile = frame.ExtractTile(tx, ty);
        EXPECT_EQ(tile.x, tx);
        EXPECT_EQ(tile.y, ty);
        EXPECT_FALSE(tile.compressed);
        ASSERT_EQ(tile.data.size(), static_cast<size_t>(kTilePixels));
        bool edge = false;
        for (int row = 0; row < kTileDim; ++row) {
          for (int col = 0; col < kTileDim; ++col) {
            const int px = tx + col;
            const int py = ty + row;
            const bool inside = px < frame.width && py < frame.height;
            edge = edge || !inside;
            EXPECT_EQ(tile.data[static_cast<size_t>(row) * kTileDim + col],
                      inside ? frame.at(px, py) : 0)
                << "tile (" << tx << ", " << ty << ") pixel (" << col << ", " << row << ")";
          }
        }
        edge_tiles += edge ? 1 : 0;
      }
    }
    EXPECT_EQ(edge_tiles, 21 + 13 - 1);  // last column plus last row
  }
}

uint64_t Fnv1a64(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Golden values: the camera's content feeds every video experiment, and the
// raw-tile workloads ship these pixels without any check on them.
TEST(FrameSourceTest, RenderIsPinned) {
  FrameSource noisy(320, 240, 0.1, 42);
  // One source, in order: the noise stream carries over between frames.
  EXPECT_EQ(Fnv1a64(noisy.Render(0).pixels), 0x4c53a294ca7b9f16ULL);
  EXPECT_EQ(Fnv1a64(noisy.Render(1).pixels), 0x4cd6815ec5584d45ULL);
  EXPECT_EQ(Fnv1a64(noisy.Render(37).pixels), 0xf24fd2a09f834467ULL);
  FrameSource clean(161, 97, 0.0);
  const Frame ragged = clean.Render(5);
  EXPECT_EQ(ragged.width, 161);
  EXPECT_EQ(ragged.height, 97);
  EXPECT_EQ(ragged.frame_no, 5u);
  EXPECT_EQ(Fnv1a64(ragged.pixels), 0xf9d13e6cbe3b85feULL);
}

TEST(CompressionTest, SmoothTileCompressesWell) {
  std::vector<uint8_t> pixels(kTilePixels);
  for (int i = 0; i < kTilePixels; ++i) {
    pixels[static_cast<size_t>(i)] = static_cast<uint8_t>(100 + i / 8);  // gentle gradient
  }
  auto compressed = CompressTile(pixels, 60);
  EXPECT_LT(compressed.size(), pixels.size() / 2);
  auto restored = DecompressTile(compressed);
  ASSERT_TRUE(restored.has_value());
  // Lossy but close.
  double err = 0;
  for (int i = 0; i < kTilePixels; ++i) {
    err += std::abs(static_cast<double>((*restored)[static_cast<size_t>(i)]) -
                    static_cast<double>(pixels[static_cast<size_t>(i)]));
  }
  EXPECT_LT(err / kTilePixels, 4.0);
}

TEST(CompressionTest, QualityTradesSizeForFidelity) {
  FrameSource source(64, 64, 0.3);
  Frame frame = source.Render(0);
  Tile tile = frame.ExtractTile(24, 24);
  auto lo = CompressTile(tile.data, 10);
  auto hi = CompressTile(tile.data, 95);
  EXPECT_LT(lo.size(), hi.size());

  auto lo_restored = DecompressTile(lo);
  auto hi_restored = DecompressTile(hi);
  ASSERT_TRUE(lo_restored.has_value());
  ASSERT_TRUE(hi_restored.has_value());
  auto error = [&](const std::vector<uint8_t>& got) {
    double e = 0;
    for (int i = 0; i < kTilePixels; ++i) {
      const double d = static_cast<double>(got[static_cast<size_t>(i)]) -
                       static_cast<double>(tile.data[static_cast<size_t>(i)]);
      e += d * d;
    }
    return e;
  };
  EXPECT_LT(error(*hi_restored), error(*lo_restored));
}

TEST(CompressionTest, DecompressRejectsTruncated) {
  std::vector<uint8_t> pixels(kTilePixels, 99);
  auto compressed = CompressTile(pixels, 60);
  compressed.pop_back();
  EXPECT_FALSE(DecompressTile(compressed).has_value());
  EXPECT_FALSE(DecompressTile({}).has_value());
}

TEST(CompressionTest, InPlaceHelpers) {
  FrameSource source(16, 16, 0.0);
  Frame frame = source.Render(0);
  Tile tile = frame.ExtractTile(0, 0);
  const auto original = tile.data;
  CompressTileInPlace(&tile, CompressionMode::kMotionJpeg, 80);
  EXPECT_TRUE(tile.compressed);
  EXPECT_TRUE(DecompressTileInPlace(&tile));
  EXPECT_FALSE(tile.compressed);
  EXPECT_EQ(tile.data.size(), original.size());
}

class DeviceFixture : public ::testing::Test {
 protected:
  DeviceFixture() : net_(&sim_) {
    sw_ = net_.AddSwitch("sw", 8);
    cam_ep_ = net_.AddEndpoint("cam", sw_, 0, 155'000'000);
    disp_ep_ = net_.AddEndpoint("disp", sw_, 1, 155'000'000);
    audio_in_ep_ = net_.AddEndpoint("audio-in", sw_, 2, 155'000'000);
    audio_out_ep_ = net_.AddEndpoint("audio-out", sw_, 3, 155'000'000);
  }

  sim::Simulator sim_;
  atm::Network net_;
  atm::Switch* sw_;
  atm::Endpoint* cam_ep_;
  atm::Endpoint* disp_ep_;
  atm::Endpoint* audio_in_ep_;
  atm::Endpoint* audio_out_ep_;
};

TEST_F(DeviceFixture, CameraStreamsTilesToDisplay) {
  auto vc = net_.OpenVc(cam_ep_, disp_ep_);
  ASSERT_TRUE(vc.has_value());

  AtmCamera::Config config;
  config.width = 64;
  config.height = 48;
  config.fps = 25;
  AtmCamera camera(&sim_, cam_ep_, config);
  AtmDisplay display(&sim_, disp_ep_, 320, 240);
  WindowManager wm(&display);
  wm.CreateWindow(vc->destination_vci, 10, 10, 64, 48);

  camera.Start(vc->source_vci);
  sim_.RunUntil(Seconds(1));
  camera.Stop();

  EXPECT_GE(camera.frames_captured(), 24u);
  EXPECT_GT(display.tiles_blitted(), 1000);
  EXPECT_EQ(display.decode_errors(), 0u);
  // Pixels landed inside the window...
  EXPECT_NE(display.PixelAt(12, 12), 0);
  // ...and nowhere else.
  EXPECT_EQ(display.PixelAt(200, 200), 0);
  EXPECT_EQ(display.OwnerAt(12, 12), vc->destination_vci);
}

TEST_F(DeviceFixture, TileLatencyFarBelowFrameTime) {
  // E01's claim in miniature: tile emission keeps capture-to-screen latency
  // in the tens-of-microseconds range, far below the 40 ms frame time.
  auto vc = net_.OpenVc(cam_ep_, disp_ep_);
  ASSERT_TRUE(vc.has_value());
  AtmCamera::Config config;
  config.width = 64;
  config.height = 48;
  config.emission = AtmCamera::Emission::kTiles;
  AtmCamera camera(&sim_, cam_ep_, config);
  AtmDisplay display(&sim_, disp_ep_, 320, 240);
  WindowManager wm(&display);
  wm.CreateWindow(vc->destination_vci, 0, 0, 64, 48);
  camera.Start(vc->source_vci);
  sim_.RunUntil(Seconds(1));
  ASSERT_GT(display.tile_latency().count(), 0);
  // Tens of microseconds, as the paper promises — three orders of magnitude
  // below the 40 ms frame time.
  EXPECT_LT(display.tile_latency().Quantile(0.5), 1e5);
  EXPECT_LT(display.tile_latency().max(), 1e6);
}

TEST_F(DeviceFixture, WholeFrameEmissionCostsAFrameTime) {
  auto vc = net_.OpenVc(cam_ep_, disp_ep_);
  ASSERT_TRUE(vc.has_value());
  AtmCamera::Config config;
  config.width = 64;
  config.height = 48;
  config.emission = AtmCamera::Emission::kWholeFrame;
  AtmCamera camera(&sim_, cam_ep_, config);
  AtmDisplay display(&sim_, disp_ep_, 320, 240);
  WindowManager wm(&display);
  wm.CreateWindow(vc->destination_vci, 0, 0, 64, 48);
  camera.Start(vc->source_vci);
  sim_.RunUntil(Seconds(1));
  ASSERT_GT(display.tile_latency().count(), 0);
  // Bands wait for the frame scan to finish: the oldest is nearly a frame
  // time (40 ms) old, the median about half a frame.
  EXPECT_GT(display.tile_latency().Quantile(0.5), 10e6);
  EXPECT_GT(display.tile_latency().max(), 30e6);
}

TEST_F(DeviceFixture, CompressionReducesBandwidth) {
  auto vc1 = net_.OpenVc(cam_ep_, disp_ep_);
  ASSERT_TRUE(vc1.has_value());
  AtmCamera::Config raw;
  raw.width = 64;
  raw.height = 48;
  raw.compression = CompressionMode::kRaw;
  raw.content_noise = 0.0;  // clean scene: what MJPEG is good at
  AtmCamera raw_cam(&sim_, cam_ep_, raw);
  raw_cam.Start(vc1->source_vci);
  sim_.RunUntil(Seconds(1));
  raw_cam.Stop();
  const int64_t raw_bytes = raw_cam.bytes_sent();

  AtmCamera::Config mjpeg = raw;
  mjpeg.compression = CompressionMode::kMotionJpeg;
  mjpeg.jpeg_quality = 60;
  AtmCamera jpeg_cam(&sim_, cam_ep_, mjpeg);
  jpeg_cam.Start(vc1->source_vci);
  sim_.RunUntil(sim_.now() + Seconds(1));
  jpeg_cam.Stop();
  EXPECT_LT(jpeg_cam.bytes_sent(), raw_bytes / 2);
}

TEST_F(DeviceFixture, WindowOcclusionRespectsZOrder) {
  auto vc1 = net_.OpenVc(cam_ep_, disp_ep_);
  auto vc2 = net_.OpenVc(audio_in_ep_, disp_ep_);  // any endpoint will do
  ASSERT_TRUE(vc1.has_value());
  ASSERT_TRUE(vc2.has_value());
  AtmDisplay display(&sim_, disp_ep_, 100, 100);
  WindowManager wm(&display);
  wm.CreateWindow(vc1->destination_vci, 0, 0, 50, 50);
  wm.CreateWindow(vc2->destination_vci, 25, 25, 50, 50);  // on top (later = higher z)
  // Overlap is owned by the second window.
  EXPECT_EQ(display.OwnerAt(30, 30), vc2->destination_vci);
  EXPECT_EQ(display.OwnerAt(10, 10), vc1->destination_vci);
  wm.RaiseWindow(vc1->destination_vci);
  EXPECT_EQ(display.OwnerAt(30, 30), vc1->destination_vci);
  wm.IconifyWindow(vc1->destination_vci);
  EXPECT_EQ(display.OwnerAt(30, 30), vc2->destination_vci);
  EXPECT_EQ(display.OwnerAt(10, 10), atm::kVciUnassigned);
  wm.RestoreWindow(vc1->destination_vci);
  EXPECT_EQ(display.OwnerAt(10, 10), vc1->destination_vci);
}

TEST_F(DeviceFixture, DisplayClipsAndOccludesRawAndCompressedTilesAlike) {
  // Two 64x48 screens show the same picture, one fed raw tiles and one
  // Motion-JPEG tiles. Window A (37x27) hangs off the right and bottom
  // edges; window B (10x10) sits on top of it, fully on screen.
  const WindowDescriptor win_a{40, 28, 37, 27};
  const WindowDescriptor win_b{50, 30, 10, 10};
  constexpr int kScreenW = 64;
  constexpr int kScreenH = 48;

  // Tiles over window coordinates [0, cols * 8) x [0, rows * 8), as JPEG and
  // as the raw pixels the codec gives back, so both feeds carry one picture.
  auto picture = [](int cols, int rows, int shade, TilePacket* raw, TilePacket* jpeg) {
    for (int ty = 0; ty < rows * kTileDim; ty += kTileDim) {
      for (int tx = 0; tx < cols * kTileDim; tx += kTileDim) {
        std::vector<uint8_t> pixels(kTilePixels);
        for (int i = 0; i < kTilePixels; ++i) {
          pixels[static_cast<size_t>(i)] =
              static_cast<uint8_t>(tx * 5 + ty * 3 + i * 7 + shade);
        }
        Tile tile;
        tile.x = static_cast<uint16_t>(tx);
        tile.y = static_cast<uint16_t>(ty);
        tile.compressed = true;
        tile.data = CompressTile(pixels, 75);
        jpeg->tiles.push_back(tile);
        ASSERT_TRUE(DecompressTileInPlace(&tile));
        raw->tiles.push_back(tile);
      }
    }
  };
  // A: 6x4 tiles. The x = 40 column lies outside the window, the x = 32
  // column and the y = 24 row straddle its edges, and everything right of
  // window x = 24 or below window y = 20 is off the screen.
  TilePacket raw_a;
  TilePacket jpeg_a;
  picture(6, 4, 1, &raw_a, &jpeg_a);
  // B: 3x2 tiles. The x = 16 column lies outside the window; the x = 8
  // column and the y = 8 row straddle its edges, over pixels A owns.
  TilePacket raw_b;
  TilePacket jpeg_b;
  picture(3, 2, 101, &raw_b, &jpeg_b);
  // One malformed tile per feed, dropped before clipping.
  Tile bad;
  bad.data.assign(kTilePixels - 1, 9);
  raw_a.tiles.push_back(bad);
  bad.compressed = true;
  jpeg_a.tiles.push_back(bad);

  // Expected screen: the topmost window covering each pixel shows its own
  // tile pixel there; everything else stays background.
  std::vector<uint8_t> expected(static_cast<size_t>(kScreenW) * kScreenH, 0);
  for (const auto& [win, packet] : {std::pair{win_a, &raw_a}, std::pair{win_b, &raw_b}}) {
    for (const Tile& tile : packet->tiles) {
      if (tile.data.size() != kTilePixels) {
        continue;  // the malformed tile
      }
      for (int i = 0; i < kTilePixels; ++i) {
        const int wx = tile.x + i % kTileDim;
        const int wy = tile.y + i / kTileDim;
        const int sx = win.x + wx;
        const int sy = win.y + wy;
        if (wx < win.width && wy < win.height && sx < kScreenW && sy < kScreenH) {
          expected[static_cast<size_t>(sy) * kScreenW + sx] = tile.data[static_cast<size_t>(i)];
        }
      }
    }
  }

  struct Feed {
    atm::Endpoint* from;
    atm::Endpoint* to;
    const TilePacket* a;
    const TilePacket* b;
  };
  for (const Feed& feed : {Feed{cam_ep_, disp_ep_, &raw_a, &raw_b},
                           Feed{audio_in_ep_, audio_out_ep_, &jpeg_a, &jpeg_b}}) {
    SCOPED_TRACE(feed.a->tiles[0].compressed ? "jpeg" : "raw");
    auto vc_a = net_.OpenVc(feed.from, feed.to);
    auto vc_b = net_.OpenVc(feed.from, feed.to);
    ASSERT_TRUE(vc_a.has_value());
    ASSERT_TRUE(vc_b.has_value());
    AtmDisplay display(&sim_, feed.to, kScreenW, kScreenH);
    WindowManager wm(&display);
    wm.CreateWindow(vc_a->destination_vci, win_a.x, win_a.y, win_a.width, win_a.height);
    wm.CreateWindow(vc_b->destination_vci, win_b.x, win_b.y, win_b.width, win_b.height);
    feed.from->SendFrame(vc_a->source_vci, feed.a->Serialize());
    feed.from->SendFrame(vc_b->source_vci, feed.b->Serialize());
    sim_.RunUntil(sim_.now() + Milliseconds(5));

    EXPECT_EQ(display.tiles_blitted(), 20 + 4);
    EXPECT_EQ(display.tiles_clipped(), 4 + 2);
    EXPECT_EQ(display.decode_errors(), 1u);
    // A: its 24x20 on-screen part less B's 10x10; B: all of it.
    EXPECT_EQ(display.pixels_drawn(), 24 * 20 - 10 * 10 + 10 * 10);
    for (int y = 0; y < kScreenH; ++y) {
      for (int x = 0; x < kScreenW; ++x) {
        ASSERT_EQ(display.PixelAt(x, y), expected[static_cast<size_t>(y) * kScreenW + x])
            << "screen (" << x << ", " << y << ")";
      }
    }
  }
}

TEST_F(DeviceFixture, WindowOpsMoveNoPixels) {
  // E14: window management = descriptor edits; media keeps flowing into the
  // moved window without the manager copying a single pixel.
  auto vc = net_.OpenVc(cam_ep_, disp_ep_);
  ASSERT_TRUE(vc.has_value());
  AtmCamera::Config config;
  config.width = 32;
  config.height = 32;
  AtmCamera camera(&sim_, cam_ep_, config);
  AtmDisplay display(&sim_, disp_ep_, 200, 200);
  WindowManager wm(&display);
  wm.CreateWindow(vc->destination_vci, 0, 0, 32, 32);
  camera.Start(vc->source_vci);
  sim_.RunUntil(Milliseconds(200));
  EXPECT_NE(display.PixelAt(5, 5), 0);
  wm.MoveWindow(vc->destination_vci, 100, 100);
  sim_.RunUntil(sim_.now() + Milliseconds(200));
  EXPECT_NE(display.PixelAt(105, 105), 0);
  EXPECT_EQ(display.OwnerAt(5, 5), atm::kVciUnassigned);
  EXPECT_EQ(wm.operations(), 2);
  EXPECT_EQ(display.descriptor_updates(), 2);
}

TEST_F(DeviceFixture, AudioCellsCarryTimestamps) {
  auto vc = net_.OpenVc(audio_in_ep_, audio_out_ep_);
  ASSERT_TRUE(vc.has_value());
  AudioCapture capture(&sim_, audio_in_ep_, 44'100);
  AudioPlayback playback(&sim_, audio_out_ep_, 44'100, Milliseconds(10));
  capture.Start(vc->source_vci);
  sim_.RunUntil(Seconds(1));
  capture.Stop();
  // 44100 / 40 samples-per-cell = ~1102 cells per second.
  EXPECT_NEAR(static_cast<double>(capture.cells_sent()), 1102.0, 5.0);
  EXPECT_GT(playback.cells_played(), 1000);
  EXPECT_EQ(playback.underruns(), 0);
  // End-to-end latency = buffer depth + transport, and the buffer dominates.
  EXPECT_GT(playback.end_to_end_latency().mean(), 9e6);
  EXPECT_LT(playback.end_to_end_latency().mean(), 15e6);
  // The play-out clock is smooth.
  EXPECT_LT(playback.playout_jitter().max(), 1e3);
}

TEST(ControlTest, MessageRoundTrip) {
  ControlMessage msg;
  msg.type = ControlType::kIndexMark;
  msg.stream_id = 7;
  msg.media_ts = Milliseconds(80);
  msg.aux = 123456;
  auto parsed = ControlMessage::Parse(msg.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, ControlType::kIndexMark);
  EXPECT_EQ(parsed->stream_id, 7u);
  EXPECT_EQ(parsed->media_ts, Milliseconds(80));
  EXPECT_EQ(parsed->aux, 123456);
  EXPECT_FALSE(ControlMessage::Parse({1, 2}).has_value());
}

TEST_F(DeviceFixture, ControlChannelDelivers) {
  auto pair = net_.OpenDuplex(cam_ep_, disp_ep_);
  ASSERT_TRUE(pair.has_value());
  atm::MessageTransport cam_t(cam_ep_);
  atm::MessageTransport disp_t(disp_ep_);
  ControlChannel sender(&cam_t, pair->first.source_vci, pair->second.destination_vci);
  ControlChannel receiver(&disp_t, pair->second.source_vci, pair->first.destination_vci);
  ControlMessage got;
  receiver.set_handler([&](const ControlMessage& m) { got = m; });
  ControlMessage msg;
  msg.type = ControlType::kSeek;
  msg.media_ts = Seconds(3);
  sender.Send(msg);
  sim_.Run();
  EXPECT_EQ(receiver.received(), 1);
  EXPECT_EQ(got.type, ControlType::kSeek);
  EXPECT_EQ(got.media_ts, Seconds(3));
}

TEST(SyncTest, ControllerAlignsSkewedStreams) {
  sim::Simulator sim;
  PlaybackController::Options opts;
  opts.margin = Milliseconds(40);
  PlaybackController controller(&sim, opts);
  const int video = controller.RegisterStream("video");
  const int audio = controller.RegisterStream("audio");

  // Video arrives 25 ms after capture, audio 5 ms after: a 20 ms skew that
  // immediate play-out would expose.
  for (int i = 0; i < 50; ++i) {
    const sim::TimeNs ts = i * Milliseconds(40);
    sim.ScheduleAt(ts + Milliseconds(25), [&, ts]() { controller.OnArrival(video, ts); });
    sim.ScheduleAt(ts + Milliseconds(5), [&, ts]() { controller.OnArrival(audio, ts); });
  }
  sim.Run();
  ASSERT_GT(controller.skew().count(), 0);
  EXPECT_LT(controller.skew().Quantile(0.9), 1e6);  // sub-millisecond skew
  EXPECT_EQ(controller.late_arrivals(), 0);
}

TEST(SyncTest, ImmediateModeExposesSkew) {
  sim::Simulator sim;
  PlaybackController::Options opts;
  opts.mode = PlaybackController::Mode::kImmediate;
  PlaybackController controller(&sim, opts);
  const int video = controller.RegisterStream("video");
  const int audio = controller.RegisterStream("audio");
  for (int i = 0; i < 50; ++i) {
    const sim::TimeNs ts = i * Milliseconds(40);
    sim.ScheduleAt(ts + Milliseconds(25), [&, ts]() { controller.OnArrival(video, ts); });
    sim.ScheduleAt(ts + Milliseconds(5), [&, ts]() { controller.OnArrival(audio, ts); });
  }
  sim.Run();
  ASSERT_GT(controller.skew().count(), 0);
  EXPECT_GT(controller.skew().mean(), 19e6);  // the 20 ms skew shows through
}

TEST(SyncTest, LateArrivalsCountedNotDropped) {
  sim::Simulator sim;
  PlaybackController::Options opts;
  opts.margin = Milliseconds(10);
  PlaybackController controller(&sim, opts);
  const int s = controller.RegisterStream("v");
  controller.OnArrival(s, 0);
  // Sample for ts=40ms arrives at 120ms: past its 50ms due time.
  sim.ScheduleAt(Milliseconds(120), [&]() { controller.OnArrival(s, Milliseconds(40)); });
  sim.Run();
  EXPECT_EQ(controller.late_arrivals(), 1);
  EXPECT_EQ(controller.playouts(), 2);
}

}  // namespace
}  // namespace pegasus::dev
