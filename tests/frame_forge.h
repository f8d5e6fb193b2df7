// Test-only frame forging: builds a frame the way a container does
// (FrameBuilder over a pool), for tests that inject hand-made or hostile
// traffic under any source id.
#pragma once

#include "protocol/frame.h"
#include "util/frame_pool.h"

namespace marea::testutil {

template <typename Msg>
SharedFrame forge_frame(FramePool& pool, proto::MsgType type,
                        proto::ContainerId source, const Msg& msg) {
  proto::FrameBuilder fb(pool, proto::FrameHeader{type, source});
  msg.encode(fb.payload());
  return std::move(fb).seal();
}

}  // namespace marea::testutil
