// ConGrid -- discovery wire messages.
//
// Discovery traffic rides in kDiscovery frames. The envelope is binary
// (serial::Writer); advertisements and queries inside it are XML strings,
// matching the paper's "requests are encoded as XML scripts" design while
// keeping the envelope compact enough to count bytes honestly in E4.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/endpoint.hpp"
#include "obs/context.hpp"
#include "p2p/advert.hpp"
#include "serial/frame.hpp"

namespace cg::p2p {

enum class DiscoveryMsgType : std::uint8_t {
  kQuery = 1,
  kResponse = 2,
  kPublish = 3,
};

// Every discovery message carries an obs::TraceContext, encoded as a fixed
// 24 bytes right after the type tag (zero-filled when untraced, so message
// sizes never depend on observability state). Forwarded queries keep the
// originator's context; responses echo the query's, tying a whole
// discovery round to the run that issued it.

/// A query in flight: who asked, how far it may still travel, what it wants.
struct QueryMsg {
  std::uint64_t query_id = 0;
  net::Endpoint origin;  ///< responses go straight back here
  std::uint8_t ttl = 0;  ///< remaining hops including the receiving one
  Query query;
  obs::TraceContext trace;
};

/// Advertisements answering `query_id`, sent directly to the origin.
struct ResponseMsg {
  std::uint64_t query_id = 0;
  std::vector<Advertisement> adverts;
  obs::TraceContext trace;
};

/// Push adverts into a rendezvous's cache; a plain peer refuses them.
struct PublishMsg {
  std::vector<Advertisement> adverts;
  obs::TraceContext trace;
};

serial::Frame encode(const QueryMsg& m);
serial::Frame encode(const ResponseMsg& m);
serial::Frame encode(const PublishMsg& m);

/// Peek the message type of a kDiscovery frame payload.
DiscoveryMsgType discovery_type(const serial::Frame& f);

QueryMsg decode_query(const serial::Frame& f);
ResponseMsg decode_response(const serial::Frame& f);
PublishMsg decode_publish(const serial::Frame& f);

}  // namespace cg::p2p
