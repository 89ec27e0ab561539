#include "core/service/protocol.hpp"

#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "xml/parse.hpp"
#include "xml/write.hpp"

namespace cg::core {
namespace {

/// Control frame layout: string (XML header) + blob (binary body).
serial::Frame pack(const xml::Node& header, const serial::Bytes& body = {}) {
  serial::Writer w;
  w.string(xml::write(header, /*pretty=*/false));
  w.blob(body);
  serial::Frame f;
  f.type = serial::FrameType::kControl;
  f.payload = w.take();
  return f;
}

struct Unpacked {
  xml::Node header;
  serial::Bytes body;
};

/// Decodes a control frame: unpacks it and hands it to `read`. An XML
/// failure in the header or its attributes is a malformed frame like any
/// other, so it surfaces as DecodeError.
template <typename Read>
auto decode_control(const serial::Frame& f, Read read) {
  try {
    serial::Reader r(f.payload);
    Unpacked u;
    u.header = xml::parse(r.string());
    u.body = r.blob();
    return read(std::move(u));
  } catch (const xml::XmlError& e) {
    throw serial::DecodeError(std::string("control frame: ") + e.what());
  }
}

/// Fixed-width 16-hex rendering so the attribute (and frame) size is the
/// same whether or not tracing is active.
std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return s;
}

std::uint64_t parse_hex16(const std::string& s) {
  if (s.size() > 16) throw serial::DecodeError("hex attribute too wide");
  std::uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      v |= static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      throw serial::DecodeError("bad hex in trace attribute");
    }
  }
  return v;
}

ControlType type_from_name(const std::string& name) {
  if (name == "deploy") return ControlType::kDeploy;
  if (name == "deploy-ack") return ControlType::kDeployAck;
  if (name == "cancel") return ControlType::kCancel;
  if (name == "status-request") return ControlType::kStatusRequest;
  if (name == "status") return ControlType::kStatus;
  if (name == "checkpoint-request") return ControlType::kCheckpointRequest;
  if (name == "checkpoint-data") return ControlType::kCheckpointData;
  if (name == "rebind") return ControlType::kRebind;
  if (name == "fence") return ControlType::kFence;
  if (name == "bounce") return ControlType::kBounce;
  if (name == "promote") return ControlType::kPromote;
  if (name == "resume") return ControlType::kResume;
  throw serial::DecodeError("unknown control message <" + name + ">");
}

}  // namespace

serial::Frame encode(const DeployMsg& m) {
  xml::Node n("deploy");
  n.set_attr("job", m.job_id);
  n.set_attr("owner", m.owner);
  n.set_attr("owner-endpoint", m.owner_endpoint.value);
  n.set_attr_int("iterations", static_cast<long long>(m.iterations));
  n.set_attr("trace", hex16(m.trace.trace_id));
  n.set_attr("span", hex16(m.trace.parent_span));
  n.set_attr("lc", hex16(m.trace.lamport));
  // Fencing attrs ride fixed-width (epoch) / always-present (lease,
  // standby) so frame sizes do not depend on whether supervision is on.
  n.set_attr("epoch", hex16(m.epoch));
  n.set_attr_double("lease", m.lease_s);
  n.set_attr("standby", m.standby ? "true" : "false");
  n.add_child("graph").set_text(m.graph_xml);
  if (!m.module_hashes.empty()) {
    xml::Node& mods = n.add_child("modules");
    for (const auto& [type, digest] : m.module_hashes) {
      xml::Node& mod = mods.add_child("module");
      mod.set_attr("type", type);
      mod.set_attr("sha256", digest.hex());
    }
  }
  if (!m.channels.empty()) {
    xml::Node& chans = n.add_child("channels");
    for (const auto& [label, hint] : m.channels) {
      xml::Node& c = chans.add_child("channel");
      c.set_attr("label", label);
      c.set_attr("endpoint", hint.provider.value);
      c.set_attr("epoch", hex16(hint.epoch));
    }
  }
  return pack(n, m.checkpoint);
}

serial::Frame encode(const DeployAckMsg& m) {
  xml::Node n("deploy-ack");
  n.set_attr("job", m.job_id);
  n.set_attr("ok", m.ok ? "true" : "false");
  if (!m.error.empty()) n.set_attr("error", m.error);
  return pack(n);
}

serial::Frame encode(const CancelMsg& m) {
  xml::Node n("cancel");
  n.set_attr("job", m.job_id);
  return pack(n);
}

serial::Frame encode(const StatusRequestMsg& m) {
  xml::Node n("status-request");
  n.set_attr("job", m.job_id);
  n.set_attr("epoch", hex16(m.epoch));
  n.set_attr_double("lease", m.lease_s);
  return pack(n);
}

serial::Frame encode(const StatusMsg& m) {
  xml::Node n("status");
  n.set_attr("job", m.job_id);
  n.set_attr("known", m.known ? "true" : "false");
  n.set_attr("running", m.running ? "true" : "false");
  n.set_attr("failed", m.failed ? "true" : "false");
  n.set_attr("epoch", hex16(m.epoch));
  n.set_attr("suspended", m.suspended ? "true" : "false");
  if (!m.error.empty()) n.set_attr("error", m.error);
  n.set_attr_int("iteration", static_cast<long long>(m.iteration));
  n.set_attr_int("firings", static_cast<long long>(m.firings));
  return pack(n);
}

serial::Frame encode(const CheckpointRequestMsg& m) {
  xml::Node n("checkpoint-request");
  n.set_attr("job", m.job_id);
  return pack(n);
}

serial::Frame encode(const CheckpointDataMsg& m) {
  xml::Node n("checkpoint-data");
  n.set_attr("job", m.job_id);
  n.set_attr("ok", m.ok ? "true" : "false");
  return pack(n, m.state);
}

serial::Frame encode(const RebindMsg& m) {
  xml::Node n("rebind");
  n.set_attr("label", m.label);
  n.set_attr("epoch", hex16(m.epoch));
  return pack(n);
}

serial::Frame encode(const FenceMsg& m) {
  xml::Node n("fence");
  n.set_attr("label", m.label);
  n.set_attr("epoch", hex16(m.epoch));
  if (!m.target.empty()) n.set_attr("target", m.target);
  return pack(n);
}

serial::Frame encode(const BounceMsg& m) {
  xml::Node n("bounce");
  n.set_attr("label", m.label);
  return pack(n, m.payload);
}

serial::Frame encode(const PromoteMsg& m) {
  xml::Node n("promote");
  n.set_attr("job", m.job_id);
  return pack(n);
}

serial::Frame encode(const ResumeMsg& m) {
  xml::Node n("resume");
  n.set_attr("job", m.job_id);
  n.set_attr("epoch", hex16(m.epoch));
  n.set_attr_double("lease", m.lease_s);
  return pack(n);
}

ControlType control_type(const serial::Frame& f) {
  return decode_control(
      f, [](Unpacked u) { return type_from_name(u.header.name()); });
}

DeployMsg decode_deploy(const serial::Frame& f) {
  return decode_control(f, [](Unpacked u) {
    DeployMsg m;
    m.job_id = u.header.require_attr("job");
    m.owner = u.header.attr_or("owner", "");
    m.owner_endpoint = net::Endpoint{u.header.attr_or("owner-endpoint", "")};
    m.iterations =
        static_cast<std::uint64_t>(u.header.attr_int("iterations", 0));
    m.graph_xml = u.header.require_child("graph").text();
    // An entry without a type names no module and is skipped; a digest
    // that is not 64 hex digits makes the whole frame malformed.
    if (const xml::Node* mods = u.header.child("modules")) {
      for (const xml::Node* mod : mods->children("module")) {
        const std::string type = mod->attr_or("type", "");
        if (type.empty()) continue;
        const auto digest = cas::Digest::from_hex(mod->attr_or("sha256", ""));
        if (!digest) throw serial::DecodeError("bad module sha256 attribute");
        m.module_hashes[type] = *digest;
      }
    }
    // Hints are advisory: an entry without a label or an endpoint is
    // skipped (the label then binds through discovery); a bad epoch makes
    // the whole frame malformed.
    if (const xml::Node* chans = u.header.child("channels")) {
      for (const xml::Node* c : chans->children("channel")) {
        const std::string label = c->attr_or("label", "");
        const std::string endpoint = c->attr_or("endpoint", "");
        if (label.empty() || endpoint.empty()) continue;
        m.channels[label] = ChannelHint{net::Endpoint{endpoint},
                                        parse_hex16(c->attr_or("epoch", "0"))};
      }
    }
    m.checkpoint = std::move(u.body);
    m.trace.trace_id = parse_hex16(u.header.attr_or("trace", "0"));
    m.trace.parent_span = parse_hex16(u.header.attr_or("span", "0"));
    m.trace.lamport = parse_hex16(u.header.attr_or("lc", "0"));
    m.epoch = parse_hex16(u.header.attr_or("epoch", "0"));
    m.lease_s = u.header.attr_double("lease", 0.0);
    m.standby = u.header.attr_or("standby", "false") == "true";
    return m;
  });
}

DeployAckMsg decode_deploy_ack(const serial::Frame& f) {
  return decode_control(f, [](Unpacked u) {
    DeployAckMsg m;
    m.job_id = u.header.require_attr("job");
    m.ok = u.header.attr_or("ok", "false") == "true";
    m.error = u.header.attr_or("error", "");
    return m;
  });
}

CancelMsg decode_cancel(const serial::Frame& f) {
  return decode_control(f, [](Unpacked u) {
    return CancelMsg{u.header.require_attr("job")};
  });
}

StatusRequestMsg decode_status_request(const serial::Frame& f) {
  return decode_control(f, [](Unpacked u) {
    StatusRequestMsg m;
    m.job_id = u.header.require_attr("job");
    m.epoch = parse_hex16(u.header.attr_or("epoch", "0"));
    m.lease_s = u.header.attr_double("lease", 0.0);
    return m;
  });
}

StatusMsg decode_status(const serial::Frame& f) {
  return decode_control(f, [](Unpacked u) {
    StatusMsg m;
    m.job_id = u.header.require_attr("job");
    m.known = u.header.attr_or("known", "false") == "true";
    m.running = u.header.attr_or("running", "false") == "true";
    m.failed = u.header.attr_or("failed", "false") == "true";
    m.epoch = parse_hex16(u.header.attr_or("epoch", "0"));
    m.suspended = u.header.attr_or("suspended", "false") == "true";
    m.error = u.header.attr_or("error", "");
    m.iteration = static_cast<std::uint64_t>(u.header.attr_int("iteration", 0));
    m.firings = static_cast<std::uint64_t>(u.header.attr_int("firings", 0));
    return m;
  });
}

CheckpointRequestMsg decode_checkpoint_request(const serial::Frame& f) {
  return decode_control(f, [](Unpacked u) {
    return CheckpointRequestMsg{u.header.require_attr("job")};
  });
}

RebindMsg decode_rebind(const serial::Frame& f) {
  return decode_control(f, [](Unpacked u) {
    RebindMsg m;
    m.label = u.header.require_attr("label");
    m.epoch = parse_hex16(u.header.attr_or("epoch", "0"));
    return m;
  });
}

FenceMsg decode_fence(const serial::Frame& f) {
  return decode_control(f, [](Unpacked u) {
    FenceMsg m;
    m.label = u.header.require_attr("label");
    m.epoch = parse_hex16(u.header.attr_or("epoch", "0"));
    m.target = u.header.attr_or("target", "");
    return m;
  });
}

BounceMsg decode_bounce(const serial::Frame& f) {
  return decode_control(f, [](Unpacked u) {
    BounceMsg m;
    m.label = u.header.require_attr("label");
    m.payload = std::move(u.body);
    return m;
  });
}

PromoteMsg decode_promote(const serial::Frame& f) {
  return decode_control(f, [](Unpacked u) {
    return PromoteMsg{u.header.require_attr("job")};
  });
}

ResumeMsg decode_resume(const serial::Frame& f) {
  return decode_control(f, [](Unpacked u) {
    ResumeMsg m;
    m.job_id = u.header.require_attr("job");
    m.epoch = parse_hex16(u.header.attr_or("epoch", "0"));
    m.lease_s = u.header.attr_double("lease", 0.0);
    return m;
  });
}

CheckpointDataMsg decode_checkpoint_data(const serial::Frame& f) {
  return decode_control(f, [](Unpacked u) {
    CheckpointDataMsg m;
    m.job_id = u.header.require_attr("job");
    m.ok = u.header.attr_or("ok", "false") == "true";
    m.state = std::move(u.body);
    return m;
  });
}

}  // namespace cg::core
