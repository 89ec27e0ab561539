#include "net/backend.hpp"

namespace cg::net {

bool SimBackend::run_until(double t_s, const std::function<bool()>& done) {
  while (!done()) {
    if (net_.now() >= t_s) break;
    if (!net_.step()) break;  // event queue drained early
  }
  return done();
}

}  // namespace cg::net
