#pragma once

// Umbrella header: the entire ColorBars public API.
//
// For faster builds include only what you use; the per-module headers
// are listed in dependency order below.

#include "colorbars/util/arena.hpp"     // per-frame bump allocator
#include "colorbars/util/bitio.hpp"     // bit-level serialization
#include "colorbars/util/fma_log.hpp"   // libm-free log of the noise draw
#include "colorbars/util/rng.hpp"       // deterministic randomness
#include "colorbars/util/vec3.hpp"      // small linear algebra

#include "colorbars/color/cie.hpp"      // CIE 1931 colorimetry
#include "colorbars/color/srgb.hpp"     // sRGB encode/decode
#include "colorbars/color/lab.hpp"      // CIELab + ΔE metrics
#include "colorbars/color/gamut.hpp"    // chromaticity gamut triangles

#include "colorbars/gf/gf256.hpp"       // GF(2^8) arithmetic
#include "colorbars/gf/poly.hpp"        // polynomials over GF(256)
#include "colorbars/rs/reed_solomon.hpp"  // RS codec (errors + erasures)

#include "colorbars/csk/constellation.hpp"  // CSK constellations
#include "colorbars/csk/mapper.hpp"         // bit labeling
#include "colorbars/csk/modulation.hpp"     // symbol -> LED drive

#include "colorbars/led/emission.hpp"   // radiance waveforms
#include "colorbars/led/tri_led.hpp"    // tri-LED transmitter hardware

#include "colorbars/protocol/symbols.hpp"       // channel alphabet
#include "colorbars/protocol/packet.hpp"        // wire format
#include "colorbars/protocol/illumination.hpp"  // white scheduling
#include "colorbars/protocol/packetizer.hpp"    // packet construction

#include "colorbars/flicker/bloch.hpp"        // flicker perception model
#include "colorbars/flicker/requirement.hpp"  // Fig. 3b solver

#include "colorbars/simd/simd.hpp"  // runtime-dispatched per-pixel kernels

#include "colorbars/channel/channel.hpp"  // optical channel (radiance stages)

#include "colorbars/camera/image.hpp"    // frame containers
#include "colorbars/camera/profile.hpp"  // device models
#include "colorbars/camera/bayer.hpp"    // CFA mosaic/demosaic
#include "colorbars/camera/camera.hpp"   // rolling-shutter simulator
#include "colorbars/camera/ppm.hpp"      // frame export

#include "colorbars/pipeline/buffer_pool.hpp"  // recycled frame/scratch buffers
#include "colorbars/pipeline/pipeline.hpp"     // streaming source and stages

#include "colorbars/channel/stages.hpp"  // frame-domain channel impairments

#include "colorbars/eq/state.hpp"   // decision-engine config + equalizer state

#include "colorbars/rx/band_extractor.hpp"     // frame -> slot observations
#include "colorbars/rx/calibration_store.hpp"  // references + classifier
#include "colorbars/eq/engine.hpp"             // pluggable symbol-decision engines
#include "colorbars/rx/receiver.hpp"           // batch receiver
#include "colorbars/rx/streaming.hpp"          // frame-at-a-time receiver
#include "colorbars/rx/rate_estimator.hpp"     // blind symbol-rate recovery
#include "colorbars/rx/roi_tracker.hpp"        // luminaire region tracking

#include "colorbars/frontend/frontend.hpp"  // receiver frontend seam

#include "colorbars/pd/pd.hpp"        // photodiode array + config
#include "colorbars/pd/sampler.hpp"   // ADC sampler + prefetch ring
#include "colorbars/pd/reducer.hpp"   // clock recovery + slot reduction
#include "colorbars/pd/frontend.hpp"  // photodiode frontend

#include "colorbars/tx/transmitter.hpp"  // transmitter pipeline

#include "colorbars/baseline/ook.hpp"  // OOK baseline
#include "colorbars/baseline/fsk.hpp"  // FSK baseline

#include "colorbars/core/link.hpp"  // end-to-end link simulator

#include "colorbars/adapt/controller.hpp"  // rate ladder + AIMD controller
#include "colorbars/adapt/feedback.hpp"    // lossy delayed uplink model
#include "colorbars/adapt/monitor.hpp"     // smoothed link-quality estimate
#include "colorbars/adapt/simulator.hpp"   // closed-loop adaptive link

#include "colorbars/scene/scene.hpp"      // multi-luminaire scene compositor
#include "colorbars/scene/receiver.hpp"   // per-ROI decode lane fan-out
#include "colorbars/scene/simulator.hpp"  // N-luminaire scene simulator

#include "colorbars/svc/json.hpp"     // wire-protocol JSON model
#include "colorbars/svc/wire.hpp"     // framed trial-service protocol
#include "colorbars/svc/sweep.hpp"    // sweep decomposition + aggregation
#include "colorbars/svc/service.hpp"  // sharded multi-process trial service
