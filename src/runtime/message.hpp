// Wire messages of the asynchronous (refined) protocol.
//
// The refinement splits each rendezvous into a *request for rendezvous* and
// an ack/nack (§3). Fused request/reply pairs (§3.3) add a fourth kind: a
// reply that simultaneously acks the request and carries the second
// rendezvous. A request/reply carries the original rendezvous message id and
// payload; acks and nacks are pure control.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/types.hpp"
#include "support/bytes.hpp"

namespace ccref::runtime {

/// Snoop/SnoopAck implement the split bus transaction (topology bus): the
/// home forwards an admitted broadcast request to each other remote as a
/// Snoop (src = the original requester, so snoop guards bind it), and the
/// remote answers with a SnoopAck. A SnoopAck's `msg` field is reused as a
/// flag: 1 means answering the snoop cancelled the remote's own in-flight
/// request (it left its active state through a `bcast?` guard), telling the
/// home to discard that request wherever it surfaces.
enum class Meta : std::uint8_t { Req, Ack, Nack, Repl, Snoop, SnoopAck };

[[nodiscard]] constexpr const char* to_string(Meta m) {
  switch (m) {
    case Meta::Req: return "REQ";
    case Meta::Ack: return "ACK";
    case Meta::Nack: return "NACK";
    case Meta::Repl: return "REPL";
    case Meta::Snoop: return "SNOOP";
    case Meta::SnoopAck: return "SNOOPACK";
  }
  return "?";
}

struct Msg {
  Meta meta = Meta::Req;
  ir::MsgId msg = 0;      // meaningful for Req/Repl
  std::uint8_t src = 0;   // sender: node id, or kHomeSrc for the home
  std::vector<ir::Value> payload{};

  static constexpr std::uint8_t kHomeSrc = 0xff;

  friend bool operator==(const Msg&, const Msg&) = default;

  void encode(ByteSink& sink) const {
    sink.u8(static_cast<std::uint8_t>(meta));
    sink.u8(msg);
    sink.u8(src);
    sink.u8(static_cast<std::uint8_t>(payload.size()));
    for (ir::Value v : payload) sink.varint(v);
  }

  static Msg decode(ByteSource& src_) {
    Msg m;
    m.meta = static_cast<Meta>(src_.u8());
    m.msg = src_.u8();
    m.src = src_.u8();
    m.payload.resize(src_.u8());
    for (ir::Value& v : m.payload) v = src_.varint();
    return m;
  }
};

/// Reliable, in-order, point-to-point FIFO channel (§2.2's network model).
struct Channel {
  std::vector<Msg> q;  // front at index 0; channels hold only a few messages

  [[nodiscard]] bool empty() const { return q.empty(); }
  [[nodiscard]] std::size_t size() const { return q.size(); }
  [[nodiscard]] const Msg& front() const { return q.front(); }
  void push(Msg m) { q.push_back(std::move(m)); }
  void pop() { q.erase(q.begin()); }
  /// Pop the head, handing it to the caller.
  Msg take() {
    Msg m = std::move(q.front());
    pop();
    return m;
  }

  friend bool operator==(const Channel&, const Channel&) = default;

  void encode(ByteSink& sink) const {
    sink.u8(static_cast<std::uint8_t>(q.size()));
    for (const Msg& m : q) m.encode(sink);
  }

  static Channel decode(ByteSource& src) {
    Channel c;
    c.q.resize(src.u8());
    for (Msg& m : c.q) m = Msg::decode(src);
    return c;
  }
};

}  // namespace ccref::runtime
