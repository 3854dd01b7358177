// Human-readable statistics reports for engines, routers, GC models and
// pools — one call from an example or a debugging session.
#pragma once

#include <string>

#include "buf/pool.h"
#include "horus/engine.h"
#include "horus/stack.h"
#include "pa/router.h"
#include "sim/gc_model.h"
#include "sim/network.h"

namespace pa {

std::string report(const EngineStats& s);
std::string report(const Router::Stats& s);
std::string report(const GcModel::Stats& s);
std::string report(const MessagePool::Stats& s);
/// The process-global zero-copy accounting: ingest/data-plane/flatten copy
/// counters and chunk allocation traffic (buf/chunk.h).
std::string report(const BufStats& s);
std::string report(const SimNetwork::Stats& s);
/// Per-layer protocol health: window/NAK reliability counters, including
/// NakLayer::stalled() (the NAK protocol's terminal failure mode) and the
/// bottom layer's checksum/length rejects.
std::string report(const Stack& s);

}  // namespace pa
