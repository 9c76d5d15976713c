// Bridges the SMR layer to the consensus substrate: batches are serialized
// with smr/codec and broadcast as opaque values; each replica subscribes a
// delivery stream that decodes the bytes, rebuilds the Bloom digest, stamps
// the atomic-broadcast sequence number, and hands the batch to the
// replica's scheduler. This is the full paper pipeline (Figure 1(b)) for
// every deployment, in-process ones included.
//
// The AtomicBroadcast reference is the transport seam: LocalBroadcast and
// PaxosGroup plug in for in-process deployments, and a
// consensus::RemoteBroadcastClient (socket_broadcast.hpp) plugs in when the
// replica lives in its own OS process and the ordered stream arrives over
// the socket transport. The adapter — and everything above it — is
// identical in all three cases.
#pragma once

#include <functional>
#include <memory>

#include "consensus/group.hpp"
#include "smr/batch.hpp"
#include "smr/codec.hpp"

namespace psmr::smr {

class ConsensusAdapter {
 public:
  /// `bitmap` must equal the proxies' BitmapConfig so the rebuilt digests
  /// are bit-identical to the originals.
  ConsensusAdapter(consensus::AtomicBroadcast& broadcast, BitmapConfig bitmap)
      : broadcast_(broadcast), bitmap_(bitmap) {}

  /// Registers a replica delivery callback. Call before the broadcast's
  /// start().
  void subscribe_replica(std::function<void(BatchPtr)> deliver) {
    broadcast_.subscribe([this, deliver = std::move(deliver)](std::uint64_t seq,
                                                              consensus::Value payload) {
      if (!payload) return;
      auto decoded = decode_batch(*payload, bitmap_);
      if (!decoded.has_value()) return;  // malformed payloads are dropped
      decoded->set_sequence(seq);
      deliver(std::make_shared<const Batch>(*std::move(decoded)));
    });
  }

  /// Serializes and broadcasts; total order and fan-out are the
  /// substrate's problem from here.
  void broadcast(std::unique_ptr<Batch> batch) {
    auto bytes = std::make_shared<const std::vector<std::uint8_t>>(encode_batch(*batch));
    broadcast_.broadcast(std::move(bytes));
  }

 private:
  consensus::AtomicBroadcast& broadcast_;
  BitmapConfig bitmap_;
};

}  // namespace psmr::smr
