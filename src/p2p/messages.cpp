#include "p2p/messages.hpp"

#include <algorithm>

#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "xml/parse.hpp"
#include "xml/write.hpp"

namespace cg::p2p {
namespace {

serial::Frame finish(serial::Writer& w) {
  serial::Frame f;
  f.type = serial::FrameType::kDiscovery;
  f.payload = w.take();
  return f;
}

void write_adverts(serial::Writer& w,
                   const std::vector<Advertisement>& adverts) {
  w.varint(adverts.size());
  for (const auto& a : adverts) {
    w.string(xml::write(a.to_xml(), /*pretty=*/false));
  }
}

/// Reads an Advertisement or Query carried as XML text. A malformed body
/// is a malformed frame, so it surfaces as DecodeError.
template <typename T>
T read_xml(serial::Reader& r) {
  const std::string text = r.string();
  try {
    return T::from_xml(xml::parse(text));
  } catch (const xml::XmlError& e) {
    throw serial::DecodeError(std::string("discovery message: ") + e.what());
  }
}

std::vector<Advertisement> read_adverts(serial::Reader& r) {
  const std::uint64_t n = r.varint();
  std::vector<Advertisement> out;
  // Each advert takes at least its one-byte length prefix.
  out.reserve(std::min<std::uint64_t>(n, r.remaining()));
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(read_xml<Advertisement>(r));
  }
  return out;
}

void expect_type(serial::Reader& r, DiscoveryMsgType want) {
  const auto got = static_cast<DiscoveryMsgType>(r.u8());
  if (got != want) {
    throw serial::DecodeError("discovery message type mismatch");
  }
}

// Fixed-width context slot right after the type tag (see messages.hpp).
void write_trace(serial::Writer& w, const obs::TraceContext& t) {
  w.u64(t.trace_id);
  w.u64(t.parent_span);
  w.u64(t.lamport);
}

obs::TraceContext read_trace(serial::Reader& r) {
  obs::TraceContext t;
  t.trace_id = r.u64();
  t.parent_span = r.u64();
  t.lamport = r.u64();
  return t;
}

}  // namespace

serial::Frame encode(const QueryMsg& m) {
  serial::Writer w;
  w.u8(static_cast<std::uint8_t>(DiscoveryMsgType::kQuery));
  write_trace(w, m.trace);
  w.u64(m.query_id);
  w.string(m.origin.value);
  w.u8(m.ttl);
  w.string(xml::write(m.query.to_xml(), /*pretty=*/false));
  return finish(w);
}

serial::Frame encode(const ResponseMsg& m) {
  serial::Writer w;
  w.u8(static_cast<std::uint8_t>(DiscoveryMsgType::kResponse));
  write_trace(w, m.trace);
  w.u64(m.query_id);
  write_adverts(w, m.adverts);
  return finish(w);
}

serial::Frame encode(const PublishMsg& m) {
  serial::Writer w;
  w.u8(static_cast<std::uint8_t>(DiscoveryMsgType::kPublish));
  write_trace(w, m.trace);
  write_adverts(w, m.adverts);
  return finish(w);
}

DiscoveryMsgType discovery_type(const serial::Frame& f) {
  serial::Reader r(f.payload);
  return static_cast<DiscoveryMsgType>(r.u8());
}

QueryMsg decode_query(const serial::Frame& f) {
  serial::Reader r(f.payload);
  expect_type(r, DiscoveryMsgType::kQuery);
  QueryMsg m;
  m.trace = read_trace(r);
  m.query_id = r.u64();
  m.origin = net::Endpoint{r.string()};
  m.ttl = r.u8();
  m.query = read_xml<Query>(r);
  return m;
}

ResponseMsg decode_response(const serial::Frame& f) {
  serial::Reader r(f.payload);
  expect_type(r, DiscoveryMsgType::kResponse);
  ResponseMsg m;
  m.trace = read_trace(r);
  m.query_id = r.u64();
  m.adverts = read_adverts(r);
  return m;
}

PublishMsg decode_publish(const serial::Frame& f) {
  serial::Reader r(f.payload);
  expect_type(r, DiscoveryMsgType::kPublish);
  PublishMsg m;
  m.trace = read_trace(r);
  m.adverts = read_adverts(r);
  return m;
}

}  // namespace cg::p2p
