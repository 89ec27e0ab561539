#include "p2p/pipes.hpp"

#include <algorithm>
#include <stdexcept>

#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace cg::p2p {
namespace {

/// Highest-epoch advert wins: after a migration the replacement publishes
/// its pipe with a bumped "epoch" attribute, and a sender re-resolving the
/// label must not rebind to a stale cached advert of the dead host.
/// Missing attribute reads as 0, ties keep the earliest advert.
const Advertisement& best_advert(const std::vector<Advertisement>& adverts) {
  const Advertisement* best = &adverts.front();
  double best_epoch = best->numeric_attr("epoch").value_or(0.0);
  for (const auto& a : adverts) {
    const double e = a.numeric_attr("epoch").value_or(0.0);
    if (e > best_epoch) {
      best = &a;
      best_epoch = e;
    }
  }
  return *best;
}

void set_epoch(Advertisement& a, std::uint64_t epoch) {
  a.attrs["epoch"] = std::to_string(epoch);
}

}  // namespace

PipeServe::PipeServe(PeerNode& node, Scheduler scheduler)
    : node_(node), scheduler_(std::move(scheduler)) {
  node_.route(serial::FrameType::kData,
              [this](const net::Endpoint& from, serial::Frame f) {
                on_frame(from, std::move(f));
              });
}

void PipeServe::advertise_input(const std::string& pipe_name,
                                PipeHandler handler, std::uint64_t epoch) {
  inputs_[pipe_name] = std::move(handler);
  Advertisement advert = node_.make_pipe_advert(pipe_name);
  set_epoch(advert, epoch);
  node_.publish_local(advert);
  for (const auto& r : node_.rendezvous()) {
    node_.publish_to(r, {advert});
    break;  // one rendezvous is responsible for this peer's adverts
  }
}

void PipeServe::hint_output(const std::string& pipe_name,
                            const net::Endpoint& provider,
                            std::uint64_t epoch) {
  Advertisement advert = node_.make_pipe_advert(pipe_name);
  // The provider's own advert id is keyed by its peer id, which a hint
  // does not carry; its endpoint keys the hint instead.
  advert.id = "pipe:" + provider.value + ":" + pipe_name;
  advert.provider = provider;
  set_epoch(advert, epoch);
  node_.publish_local(advert);
}

void PipeServe::remove_input(const std::string& pipe_name) {
  inputs_.erase(pipe_name);
  // Withdraw our advert too: a dead pipe must not keep answering
  // discovery (it would capture rebinding senders after a migration).
  node_.cache().remove(node_.make_pipe_advert(pipe_name).id);
}

void PipeServe::bind_output(const std::string& pipe_name, BindHandler on_bound,
                            ExpandingRingOptions ring) {
  Query q;
  q.kind = AdvertKind::kPipe;
  q.name = pipe_name;

  // 1. Local cache (free).
  auto local = node_.find_local(q);
  if (!local.empty()) {
    on_bound(OutputPipe{pipe_name, best_advert(local).provider});
    return;
  }

  // 3. Expanding-ring flood: the rendezvous's timeout fallback, or step 2
  // when no rendezvous is configured. Finding nothing yields an unbound
  // pipe.
  auto ring_search = [this, ring](Query query, BindHandler on_bound) {
    auto search = std::make_shared<ExpandingRingSearch>(node_, scheduler_,
                                                        query, ring);
    search->start([name = std::move(query.name),
                   on_bound = std::move(on_bound)](SearchResult r) {
      on_bound(OutputPipe{name, r.adverts.empty()
                                    ? net::Endpoint{}
                                    : best_advert(r.adverts).provider});
    });
  };
  if (node_.rendezvous().empty()) {
    ring_search(std::move(q), std::move(on_bound));
    return;
  }

  // 2. Rendezvous (one round trip) -- fall through to the ring on timeout.
  auto done = std::make_shared<bool>(false);
  const std::uint64_t qid = node_.discover_rendezvous(
      q, [pipe_name, done,
          on_bound](const std::vector<Advertisement>& adverts) {
        if (*done || adverts.empty()) return;
        *done = true;
        on_bound(OutputPipe{pipe_name, best_advert(adverts).provider});
      });
  auto fallback = [this, qid, done, ring_search, q = std::move(q),
                   on_bound = std::move(on_bound)] {
    if (*done) return;
    node_.cancel(qid);
    *done = true;
    ring_search(q, on_bound);
  };
  scheduler_(ring.ring_timeout_s, std::move(fallback));
}

void PipeServe::send(const OutputPipe& pipe, serial::Bytes payload,
                     std::uint64_t epoch) {
  if (!pipe.bound()) {
    throw std::logic_error("send on unbound pipe '" + pipe.name + "'");
  }
  serial::Writer w(pipe.name.size() + payload.size() + 24);
  w.string(pipe.name);
  w.u64(epoch);
  w.blob(payload);

  serial::Frame f;
  f.type = serial::FrameType::kData;
  f.payload = w.take();
  stats_.bytes_sent += f.payload.size();
  ++stats_.payloads_sent;
  node_.transport().send(pipe.target, std::move(f));
}

void PipeServe::fence(const std::string& pipe_name, std::uint64_t min_epoch,
                      const std::string& from) {
  std::uint64_t& cur = fences_[pipe_name][from];
  if (min_epoch > cur) cur = min_epoch;
}

std::uint64_t PipeServe::fence_of(const std::string& pipe_name,
                                  const std::string& from) const {
  auto it = fences_.find(pipe_name);
  if (it == fences_.end()) return 0;
  std::uint64_t best = 0;
  if (auto w = it->second.find(std::string{}); w != it->second.end()) {
    best = w->second;
  }
  if (!from.empty()) {
    if (auto s = it->second.find(from); s != it->second.end()) {
      best = std::max(best, s->second);
    }
  }
  return best;
}

void PipeServe::on_frame(const net::Endpoint& from, serial::Frame frame) {
  serial::Reader r(frame.payload);
  const std::string pipe_name = r.string();
  const std::uint64_t epoch = r.u64();
  serial::Bytes payload = r.blob();

  // Producer fence: a payload from before its sender's last recovery is a
  // potential double-fire -- count it, never apply it.
  if (epoch < fence_of(pipe_name, from.value)) {
    ++stats_.payloads_fenced;
    return;
  }

  auto it = inputs_.find(pipe_name);
  if (it == inputs_.end()) {
    if (unknown_ && unknown_(pipe_name, from, std::move(payload))) return;
    ++stats_.payloads_for_unknown_pipe;
    return;
  }
  ++stats_.payloads_received;
  it->second(from, std::move(payload));
}

}  // namespace cg::p2p
