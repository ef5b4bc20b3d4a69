#include "net/network.h"

#include <utility>

#include "util/macros.h"

namespace ccsim::net {

sim::Task<void> Network::Send(MessagePtr msg) {
  const int packets = PacketsFor(*msg);
  if (transport_ != nullptr) {
    ++messages_sent_;
    packets_sent_ += static_cast<std::uint64_t>(packets);
    transport_->Deliver(*msg);
    co_return;
  }
  const Endpoint* src = FindEndpoint(msg->src);
  CCSIM_CHECK_MSG(src != nullptr, "unregistered sender %d", msg->src);
  ++messages_sent_;
  packets_sent_ += static_cast<std::uint64_t>(packets);
  if (injector_ != nullptr && injector_->IsDown(msg->src)) {
    // A crashed node sends nothing: the sender coroutine is a zombie whose
    // output dies with the process.
    injector_->RecordDownDrop();
    co_return;
  }
  if (src->msg_cost > 0) {
    co_await src->cpu->Use(src->msg_cost * packets);
  }
  if (injector_ != nullptr && injector_->LinkCut(msg->src, msg->dst)) {
    // The sender paid to transmit, but the packets die at the severed link.
    injector_->RecordPartitionDrop();
    co_return;
  }
  if (injector_ != nullptr) {
    switch (injector_->DrawSendOutcome()) {
      case fault::FaultInjector::SendOutcome::kDrop:
        co_return;
      case fault::FaultInjector::SendOutcome::kDuplicate:
        simulator_->Spawn(TransferAndDeliver(CloneMessage(*msg), packets));
        break;
      case fault::FaultInjector::SendOutcome::kDeliver:
        break;
    }
  }
  simulator_->Spawn(TransferAndDeliver(std::move(msg), packets));
}

sim::Process Network::TransferAndDeliver(MessagePtr msg, int packets) {
  if (mean_packet_delay_ > 0) {
    for (int i = 0; i < packets; ++i) {
      co_await medium_.Use(rng_.ExponentialTicks(mean_packet_delay_));
    }
  }
  if (injector_ != nullptr) {
    const sim::Ticks spike = injector_->DrawExtraDelay();
    if (spike > 0) {
      co_await simulator_->Delay(spike);
    }
    if (injector_->IsDown(msg->dst)) {
      // The destination crashed while the message was in flight.
      injector_->RecordDownDrop();
      co_return;
    }
    if (injector_->LinkCut(msg->src, msg->dst)) {
      // The partition started while the message was in flight.
      injector_->RecordPartitionDrop();
      co_return;
    }
  }
  const Endpoint* found = FindEndpoint(msg->dst);
  CCSIM_CHECK_MSG(found != nullptr, "unregistered receiver %d", msg->dst);
  const Endpoint dst = *found;  // a copy: held across the CPU charge
  if (dst.msg_cost > 0) {
    co_await dst.cpu->Use(dst.msg_cost * packets);
  }
  if (injector_ != nullptr) {
    // The receiver CPU charge takes time too: a crash or partition that
    // lands during this final hop kills the message before it reaches the
    // inbox (the receive never completed). Without this re-check a message
    // could be delivered into a crashed node's (already cleared) inbox and
    // be processed mid-recovery.
    if (injector_->IsDown(msg->dst)) {
      injector_->RecordDownDrop();
      co_return;
    }
    if (injector_->LinkCut(msg->src, msg->dst)) {
      injector_->RecordPartitionDrop();
      co_return;
    }
  }
  dst.inbox->Push(std::move(msg));
}

}  // namespace ccsim::net
