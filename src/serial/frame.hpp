// ConGrid -- message framing.
//
// A Frame is the unit exchanged over every transport: a small fixed header
// (magic, type, payload length) followed by the payload and a CRC-32 of the
// payload. The stream decoder is incremental so it can sit directly on a TCP
// byte stream: feed arbitrary chunks, pull out complete frames.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "obs/context.hpp"
#include "serial/bytes.hpp"

namespace cg::serial {

/// Frame type tags. The framing layer does not interpret these beyond
/// carrying them; higher layers (pipes, service protocol) dispatch on them.
enum class FrameType : std::uint8_t {
  kControl = 1,   ///< service/controller control message (XML body)
  kData = 2,      ///< pipe data payload (binary-encoded DataItem)
  kCode = 3,      ///< module artifact transfer
  kDiscovery = 4, ///< advertisement / discovery query
  kHeartbeat = 5, ///< liveness probe
  kReliable = 6,  ///< reliable envelope: message id + wrapped inner frame
  kAck = 7,       ///< positive acknowledgement of a kReliable message id
  kBatch = 8,     ///< coalesced frame: several small frames in one payload
};

/// A decoded frame: a type tag plus an owning payload.
struct Frame {
  FrameType type = FrameType::kControl;
  Bytes payload;
};

/// Encode a frame into its on-the-wire representation:
///   u32 magic | u8 type | u32 payload_len | payload | u32 crc32(payload)
Bytes encode_frame(const Frame& f);

/// Size in bytes of the fixed part that precedes the payload.
constexpr std::size_t kFrameHeaderSize = 4 + 1 + 4;
/// Trailer size (the CRC).
constexpr std::size_t kFrameTrailerSize = 4;
/// Frames larger than this are rejected as malformed (guards a corrupt or
/// hostile length field from forcing a giant allocation).
constexpr std::size_t kMaxFramePayload = 64u * 1024u * 1024u;

// -- reliable-delivery framing ----------------------------------------------
//
// The reliable request/reply layer (net/reliable.hpp) wraps application
// frames in a kReliable envelope carrying a message id numbered per
// (sender, destination) pair, and confirms receipt with a kAck frame
// echoing that id. The codec lives here so the wire format stays in one
// place with the rest of the framing.

/// A decoded reliable envelope: the per-destination message id, the causal
/// trace context the sender stamped, plus the wrapped application frame.
struct ReliableEnvelope {
  std::uint64_t msg_id = 0;
  obs::TraceContext trace;
  Frame inner;
};

/// Wrap `inner` in a kReliable envelope tagged with `msg_id` and `trace`.
/// The trace context occupies a fixed 24 bytes whether or not tracing is
/// active (obs::kTraceContextWireSize, zero-filled when idle), so envelope
/// sizes -- and everything downstream of frame size, like simulated link
/// latency -- never depend on observability state.
Frame encode_envelope(std::uint64_t msg_id, const Frame& inner,
                      const obs::TraceContext& trace = {});

/// Unwrap a kReliable envelope; throws DecodeError on malformed input or a
/// non-kReliable frame.
ReliableEnvelope decode_envelope(const Frame& f);

/// Read just the trace context of a kReliable envelope without copying the
/// inner payload (SimNetwork merges Lamport clocks on delivery and must not
/// pay a full decode per hop). Throws DecodeError on malformed input or a
/// non-kReliable frame.
obs::TraceContext peek_envelope_trace(const Frame& f);

/// Build the kAck frame confirming `msg_id`.
Frame encode_ack(std::uint64_t msg_id);

/// Extract the acknowledged id; throws DecodeError on malformed input or a
/// non-kAck frame.
std::uint64_t decode_ack(const Frame& f);

// -- wire batching ----------------------------------------------------------
//
// The reliable layer coalesces small frames headed for the same peer into
// one kBatch frame (GraphLab-style buffered exchange), so a burst of tiny
// envelopes and acks costs one syscall / one simulated event instead of
// dozens. Sub-frames skip the outer magic/CRC -- the enclosing frame's CRC
// already covers them -- so the per-entry overhead is 5 bytes (type + len)
// against 13 for a standalone frame.

/// Per-entry overhead inside a batch payload: u8 type + u32 length.
constexpr std::size_t kBatchEntryOverhead = 1 + 4;
/// Batches larger than this are rejected as malformed.
constexpr std::size_t kMaxBatchFrames = 4096;

/// Pack `frames` (none of which may itself be kBatch) into one kBatch
/// frame: u16 count, then per entry u8 type | u32 len | payload bytes.
/// Throws std::invalid_argument on nesting or an oversized batch.
Frame encode_batch(std::span<const Frame> frames);

/// Unpack a kBatch frame into its sub-frames, in send order. Throws
/// DecodeError on malformed input or a non-kBatch frame.
std::vector<Frame> decode_batch(const Frame& f);

/// Incremental frame decoder for byte streams.
///
/// Usage: call feed() with each received chunk, then next() until it returns
/// nullopt. Corrupt input (bad magic, bad CRC, oversized length) throws
/// DecodeError; the connection should then be dropped.
///
/// Zero-copy read path: a socket owner can skip the intermediate staging
/// buffer entirely by read()ing straight into the decoder --
///
///   auto span = decoder.recv_span(16384);
///   ssize_t n = ::read(fd, span.data(), span.size());
///   decoder.commit(n > 0 ? static_cast<std::size_t>(n) : 0);
///
/// Every recv_span() MUST be balanced by exactly one commit() (possibly 0)
/// before any other decoder call. Parsing uses a cursor instead of erasing
/// the front per frame, so draining a buffer holding many small frames is
/// linear, not quadratic.
class FrameDecoder {
 public:
  /// Append raw received bytes to the internal buffer (copying path).
  void feed(const std::uint8_t* data, std::size_t len);
  void feed(const Bytes& data) { feed(data.data(), data.size()); }

  /// Expose at least `min_bytes` of writable space at the buffer tail for a
  /// direct socket read. Invalidated by any other decoder call.
  std::span<std::uint8_t> recv_span(std::size_t min_bytes);

  /// Declare `n` bytes of the last recv_span() actually filled.
  void commit(std::size_t n);

  /// Extract the next complete frame, or nullopt if more bytes are needed.
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by a complete frame.
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  void compact();

  static constexpr std::size_t kNoRecv = static_cast<std::size_t>(-1);
  Bytes buf_;
  std::size_t pos_ = 0;       ///< parse cursor into buf_
  std::size_t recv_base_ = kNoRecv;  ///< committed size while a recv_span is out
};

}  // namespace cg::serial
