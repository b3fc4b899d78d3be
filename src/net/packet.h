// Packet metadata. The simulator never carries payload contents --
// only sizes and the timestamps/sequence numbers the transport needs.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace hicc::net {

/// Kinds of packets crossing the fabric.
enum class PacketKind : std::uint8_t {
  kData,         // 1-MTU data segment of a read response
  kAck,          // per-packet acknowledgment, receiver -> sender
  kReadRequest,  // RPC read issued by a receiver thread
  kHostSignal,   // out-of-band NIC congestion signal (§4 ablation)
};

/// A network packet (metadata only).
struct Packet {
  PacketKind kind = PacketKind::kData;
  /// Global flow index (one flow = one sender/receiver-thread pair).
  std::int32_t flow = -1;
  /// Index of the sending host for data, or destination for ACKs.
  std::int32_t sender = -1;
  /// Destination host id the Clos fabric routes on (net/topology.h);
  /// every sender sets it before transmitting. Occupies the alignment
  /// hole after `sender`, so Packet stays 64 bytes and the QueuedLink
  /// delivery closure keeps fitting an 80-byte InlineAction (DESIGN §8).
  std::int32_t dst = -1;
  /// Per-flow sequence number of data packets; for ACKs, the sequence
  /// being acknowledged.
  std::int64_t seq = -1;
  /// Application payload bytes (0 for ACK / read request).
  Bytes payload{};
  /// Total wire size including all protocol headers.
  Bytes wire{};
  /// When the data packet left the sender (echoed back in its ACK for
  /// RTT measurement).
  TimePs sent_at{};
  /// Receiver-host delay (NIC arrival -> stack processing) echoed in
  /// the ACK; the congestion signal the Swift host target compares to.
  TimePs echoed_host_delay{};
  /// Set by the receiver NIC on arrival (start of host-delay clock).
  TimePs nic_arrival{};

  [[nodiscard]] bool is_data() const { return kind == PacketKind::kData; }
};

/// Wire sizing for the paper's setup: 4K MTU payload + protocol
/// headers such that goodput tops out at ~92% of line rate
/// ("throughput is upper bounded by ~92Gbps due to protocol header
/// overheads", §3).
struct WireFormat {
  Bytes mtu_payload{4096};
  Bytes data_header{356};
  Bytes ack_wire{64};
  Bytes read_request_wire{64};

  [[nodiscard]] constexpr Bytes data_wire() const { return mtu_payload + data_header; }
  /// Fraction of access-link rate available to application payload.
  [[nodiscard]] constexpr double goodput_fraction() const {
    return mtu_payload / data_wire();
  }
};

}  // namespace hicc::net
