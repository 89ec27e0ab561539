// ConGrid -- the Triana service control protocol.
//
// Controller <-> service traffic rides in kControl frames. Mirroring the
// paper ("These requests are encoded as XML scripts", section 1), each
// message is an XML document plus an optional binary body (task-graph
// attachments are XML inside the XML; checkpoints are binary bodies).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "cas/hash.hpp"
#include "core/graph/taskgraph.hpp"
#include "net/endpoint.hpp"
#include "obs/context.hpp"
#include "serial/frame.hpp"

namespace cg::core {

enum class ControlType {
  kDeploy,          ///< controller -> service: run this graph fragment
  kDeployAck,       ///< service -> controller: accepted / failed
  kCancel,          ///< controller -> service: stop and discard a job
  kStatusRequest,   ///< controller -> service
  kStatus,          ///< service -> controller
  kCheckpointRequest,  ///< controller -> service
  kCheckpointData,  ///< service -> controller (binary body)
  kRebind,          ///< controller -> service: channel moved, re-resolve
  kFence,           ///< supervisor -> everyone: reject epochs below this
  kBounce,          ///< service -> sender: payload refused, rebind + resend
  kPromote,         ///< supervisor -> service: standby job goes live
  kResume,          ///< supervisor -> service: un-suspend a leased job
};

/// Where a data channel's input pipe is served: the provider's endpoint
/// and the recovery epoch its pipe advert carries.
struct ChannelHint {
  net::Endpoint provider;
  std::uint64_t epoch = 0;

  bool operator==(const ChannelHint&) const = default;
};

/// Output label -> the provider serving it.
using ChannelMap = std::map<std::string, ChannelHint>;

struct DeployMsg {
  std::string job_id;
  std::string owner;            ///< billing identity of the submitter
  net::Endpoint owner_endpoint; ///< where module code can be fetched
  std::uint64_t iterations = 0; ///< 0 = reactive (pipe-driven) job
  std::string graph_xml;        ///< the fragment to execute
  serial::Bytes checkpoint;     ///< optional state to restore (migration)
  /// Content digests of the modules the fragment needs: unit type ->
  /// repo::artifact_digest of the artifact the owner currently publishes,
  /// on the wire as a 64-hex `sha256` attribute (anything else there makes
  /// the frame malformed). A peer holding bytes with a matching digest
  /// (module cache or CAS) can skip the network fetch entirely; a stale
  /// cached copy under the same name is detected the same way. Absent
  /// entries (older controllers) degrade to the plain fetch-from-owner
  /// path.
  std::map<std::string, cas::Digest> module_hashes;
  /// The plan's channel annotations for this fragment (static binding):
  /// output label -> the provider already serving its input pipe. The
  /// receiver caches each entry as the pipe advert a discovery would have
  /// found, so the first send binds without a query. Only labels whose
  /// consumer is live when the deploy is sent are listed; the rest (and
  /// deploys from older controllers, which carry no map) bind lazily
  /// through discovery, as do rebinds after a fence or migration.
  ChannelMap channels;
  /// Causal context of the deploy (the controller's run trace and the
  /// deploy.client span that issued it). Encoded as fixed-width 16-hex
  /// attributes that are ALWAYS present -- zeros when untraced -- so the
  /// frame size, and hence simulated latency, never depends on whether
  /// tracing is enabled.
  obs::TraceContext trace;
  /// Recovery fencing epoch of the fragment this deploy carries (0 for
  /// unsupervised / first deployments). The job stamps it on every pipe
  /// payload it emits and echoes it in status replies; fences with a
  /// higher epoch halt the job.
  std::uint64_t epoch = 0;
  /// Liveness lease in seconds (0 = none). Renewed by every supervisor
  /// contact; a job whose lease expires suspends itself -- withdraws its
  /// input pipes and bounces inbound payloads -- until the supervisor
  /// reappears or a fence kills it.
  double lease_s = 0.0;
  /// Deploy as a hot standby: restore state and wait, but do not
  /// advertise input pipes or emit anything until a kPromote arrives
  /// (speculative gray-failure backup).
  bool standby = false;
};

struct DeployAckMsg {
  std::string job_id;
  bool ok = false;
  std::string error;
};

struct CancelMsg {
  std::string job_id;
};

struct StatusRequestMsg {
  std::string job_id;
  /// The epoch the supervisor believes current (echoed back for sanity;
  /// 0 = unfenced probing).
  std::uint64_t epoch = 0;
  /// Lease renewal: > 0 extends the job's liveness lease to now+lease_s
  /// (and grants one to a job deployed without).
  double lease_s = 0.0;
};

struct StatusMsg {
  std::string job_id;
  bool known = false;
  bool running = false;
  bool failed = false;
  /// The job's own fencing epoch; a supervisor that has since re-deployed
  /// the fragment at a higher epoch ignores this reply as stale.
  std::uint64_t epoch = 0;
  bool suspended = false;  ///< lease expired, job self-suspended
  std::string error;
  std::uint64_t iteration = 0;
  std::uint64_t firings = 0;
};

struct CheckpointRequestMsg {
  std::string job_id;
};

struct CheckpointDataMsg {
  std::string job_id;
  bool ok = false;
  serial::Bytes state;
};

/// "The provider of channel `label` has moved": drop cached bindings and
/// stale pipe adverts so the next send re-resolves. Applies to every job
/// on the receiving service (jobs ignore labels they don't use). With
/// epoch > 0 it is also a fence on the consumer side: any local job still
/// ADVERTISING `label` at a lower epoch is a zombie from before the
/// migration and is halted.
struct RebindMsg {
  std::string label;
  std::uint64_t epoch = 0;
};

/// Producer fence for channel `label`, scoped to the host `target` (an
/// endpoint value): pipe payloads on `label` FROM that host stamped with an
/// epoch below `epoch` are counted and dropped, never applied -- and on the
/// target host itself, any job still sending on `label` at a lower epoch is
/// halted. The sender scope matters because fan-in channels are shared:
/// every replica of a parallel group funnels into the same home label, each
/// at its own epoch, and only the replaced host's traffic is stale.
/// Broadcast by the supervisor when a fragment is re-deployed so a
/// partitioned host that returns cannot double-fire results. An empty
/// target fences the label for every sender and halts at every receiver.
struct FenceMsg {
  std::string label;
  std::uint64_t epoch = 0;
  std::string target;
};

/// A pipe payload was refused (suspended or fenced consumer) and is handed
/// back to its sender so no item is lost: the sender drops its stale
/// binding, re-resolves `label` and re-sends the payload -- it ends up at
/// the replacement exactly once.
struct BounceMsg {
  std::string label;
  serial::Bytes payload;
};

/// Promote a standby job (deployed with DeployMsg::standby) to live: it
/// advertises its input pipes and starts emitting. Confirmed with a
/// DeployAckMsg for the same job id.
struct PromoteMsg {
  std::string job_id;
};

/// Un-suspend a lease-expired job. Only the CURRENT supervisor sends this
/// (in response to a suspended=true status reply at its own epoch), so a
/// zombie host that was already replaced never self-resumes off a stale
/// retransmitted probe -- over real sockets that race lets the zombie
/// execute a retransmitted payload at the old epoch and the result is
/// fenced at home while the reliable layer counts it delivered.
struct ResumeMsg {
  std::string job_id;
  /// Must match the job's own epoch or the resume is ignored.
  std::uint64_t epoch = 0;
  /// Fresh lease grant (> 0) accompanying the resume.
  double lease_s = 0.0;
};

serial::Frame encode(const DeployMsg& m);
serial::Frame encode(const DeployAckMsg& m);
serial::Frame encode(const CancelMsg& m);
serial::Frame encode(const StatusRequestMsg& m);
serial::Frame encode(const StatusMsg& m);
serial::Frame encode(const CheckpointRequestMsg& m);
serial::Frame encode(const CheckpointDataMsg& m);
serial::Frame encode(const RebindMsg& m);
serial::Frame encode(const FenceMsg& m);
serial::Frame encode(const BounceMsg& m);
serial::Frame encode(const PromoteMsg& m);
serial::Frame encode(const ResumeMsg& m);

/// Peek a control frame's message type; throws serial::DecodeError /
/// xml::XmlError on malformed frames.
ControlType control_type(const serial::Frame& f);

DeployMsg decode_deploy(const serial::Frame& f);
DeployAckMsg decode_deploy_ack(const serial::Frame& f);
CancelMsg decode_cancel(const serial::Frame& f);
StatusRequestMsg decode_status_request(const serial::Frame& f);
StatusMsg decode_status(const serial::Frame& f);
CheckpointRequestMsg decode_checkpoint_request(const serial::Frame& f);
CheckpointDataMsg decode_checkpoint_data(const serial::Frame& f);
RebindMsg decode_rebind(const serial::Frame& f);
FenceMsg decode_fence(const serial::Frame& f);
BounceMsg decode_bounce(const serial::Frame& f);
PromoteMsg decode_promote(const serial::Frame& f);
ResumeMsg decode_resume(const serial::Frame& f);

}  // namespace cg::core
