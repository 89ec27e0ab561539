// ConGrid -- observability façade: metrics registry + event tracer.
//
// Include this one header to instrument a component. The pattern every
// instrumented subsystem follows (SimNetwork, ReliableTransport,
// TrianaService, RunSupervisor, ModuleCache):
//
//   * hold unbound CounterRef / GaugeRef / HistogramRef / TracerRef
//     members -- all no-ops until bound, all compiled out entirely under
//     -DCONGRID_OBS=OFF;
//   * expose set_obs(Registry&, Tracer*, scope) resolving each instrument
//     once by name ("<scope>.<subsystem>.<metric>") -- no lock or lookup
//     ever runs on the hot path afterwards;
//   * benches call Registry::snapshot().to_json() and write BENCH_*.json,
//     which CI uploads and validates;
//   * for live inspection, obs/http_server.hpp serves the registry (and
//     sampler-window rates, obs/sampler.hpp) over loopback HTTP -- in
//     Prometheus text exposition (obs/prometheus.hpp) and JSON.
//
// See DESIGN.md section 4c for the metric name inventory and 4j for the
// HTTP plane.
#pragma once

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
