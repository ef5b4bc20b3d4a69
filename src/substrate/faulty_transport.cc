#include "substrate/faulty_transport.h"

namespace ccsim::substrate {

void WireFaultAdapter::Deliver(const net::Message& msg) {
  // A down endpoint sends nothing: outbound traffic from a crashed node is
  // discarded at the seam, mirroring the DES Network::Send check.
  if (injector_.IsDown(msg.src)) {
    injector_.RecordDownDrop();
    return;
  }
  if (injector_.LinkCut(msg.src, msg.dst)) {
    injector_.RecordPartitionDrop();
    return;
  }
  switch (injector_.DrawSendOutcome()) {
    case fault::FaultInjector::SendOutcome::kDrop:
      return;
    case fault::FaultInjector::SendOutcome::kDuplicate:
      // Both copies run the spike draw independently (as on the DES
      // substrate, where each copy transits the medium separately). When
      // neither spikes, the copies sit back to back in the downstream
      // FrameBuffer, preserving FIFO for everything around them.
      Forward(msg);
      break;
    case fault::FaultInjector::SendOutcome::kDeliver:
      break;
  }
  Forward(msg);
}

void WireFaultAdapter::Forward(const net::Message& msg) {
  const sim::Ticks spike = injector_.DrawExtraDelay();
  if (spike > 0) {
    const sim::Ticks due = substrate_->WallTicks() + spike;
    delayed_.push_back(Delayed{due, delay_order_++, msg});
    std::push_heap(delayed_.begin(), delayed_.end(), DelayedLater{});
    // Plant a no-op calendar event at the due time: the substrate runs the
    // flush hook after every calendar step, so this guarantees a Flush()
    // (and hence the release below) near `due` even on an otherwise idle
    // loop.
    substrate_->sim().ScheduleAt(due, [] {});
    return;
  }
  next_->Deliver(msg);
}

bool WireFaultAdapter::Flush() {
  if (!delayed_.empty()) {
    const sim::Ticks now = substrate_->WallTicks();
    while (!delayed_.empty() && delayed_.front().due <= now) {
      std::pop_heap(delayed_.begin(), delayed_.end(), DelayedLater{});
      net::Message msg = std::move(delayed_.back().msg);
      delayed_.pop_back();
      // Re-check windows at release time: a spiked message must not leak
      // through a partition that started while it was in flight.
      if (injector_.IsDown(msg.src) || injector_.IsDown(msg.dst)) {
        injector_.RecordDownDrop();
      } else if (injector_.LinkCut(msg.src, msg.dst)) {
        injector_.RecordPartitionDrop();
      } else {
        next_->Deliver(msg);
      }
    }
  }
  return next_->Flush();
}

bool WireFaultAdapter::AllowInbound(const net::Message& msg) {
  // A down endpoint receives nothing; a cut link delivers nothing. Inbound
  // filtering matters because the peer's process (or the kernel socket
  // buffer) may have shipped frames before our window opened.
  if (injector_.IsDown(msg.dst)) {
    injector_.RecordDownDrop();
    return false;
  }
  if (injector_.LinkCut(msg.src, msg.dst)) {
    injector_.RecordPartitionDrop();
    return false;
  }
  return true;
}

}  // namespace ccsim::substrate
