#include "colorbars/scene/receiver.hpp"

#include <algorithm>

#include "colorbars/runtime/thread_pool.hpp"

namespace colorbars::scene {

SceneReceiver::SceneReceiver(SceneReceiverConfig config)
    : config_(std::move(config)), tracker_(config_.tracker) {}

void SceneReceiver::consume(const camera::Frame& frame) {
  const std::vector<rx::TrackedRoi>& tracks = tracker_.update(frame);

  // Open a lane for every newly seen track. Track IDs ascend in
  // detection order, so lane creation order — and with it every decode
  // lane's identity — is deterministic.
  for (const rx::TrackedRoi& track : tracks) {
    const auto it = std::find_if(lanes_.begin(), lanes_.end(), [&](const RoiDecodeLane& l) {
      return l.roi_id == track.id;
    });
    if (it == lanes_.end()) {
      RoiDecodeLane lane;
      lane.roi_id = track.id;
      lane.region = track.region;
      lane.receiver =
          std::make_unique<rx::StreamingReceiver>(config_.receiver);
      lanes_.push_back(std::move(lane));
    } else {
      it->region = track.region;
    }
  }

  // Feed each live lane its column slice. Lanes touch disjoint decoder
  // state, so the fan-out is safe; each ROI pays its own
  // reduce/segment/parse cost, which is where a multi-luminaire frame's
  // decode work actually is.
  std::vector<RoiDecodeLane*> live;
  live.reserve(lanes_.size());
  for (RoiDecodeLane& lane : lanes_) {
    const bool tracked = std::any_of(tracks.begin(), tracks.end(), [&](const auto& track) {
      return track.id == lane.roi_id;
    });
    if (tracked) live.push_back(&lane);
  }
  runtime::parallel_for(0, static_cast<std::int64_t>(live.size()), 1,
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t i = lo; i < hi; ++i) {
                            RoiDecodeLane& lane = *live[static_cast<std::size_t>(i)];
                            int begin = lane.region.left;
                            int end = lane.region.column_end();
                            if (end - begin > 2 * config_.column_margin + 1) {
                              begin += config_.column_margin;
                              end -= config_.column_margin;
                            }
                            lane.receiver->push_frame(frame, begin, end);
                            (void)lane.receiver->poll();
                            ++lane.frames_fed;
                          }
                        });
  ++frames_consumed_;
}

void SceneReceiver::on_stream_end() {
  runtime::parallel_for(0, static_cast<std::int64_t>(lanes_.size()), 1,
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t i = lo; i < hi; ++i) {
                            (void)lanes_[static_cast<std::size_t>(i)].receiver->finish();
                          }
                        });
}

}  // namespace colorbars::scene
