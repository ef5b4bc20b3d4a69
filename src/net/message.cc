#include "net/message.h"

#include <type_traits>

namespace ccsim::net {
namespace {

/// A pooled message and its free-list link. `msg` is the first member of a
/// standard-layout struct, so a Message* handed out is also its Node*.
struct Node {
  Message msg;
  Node* next;
};
static_assert(std::is_standard_layout_v<Node>,
              "MessageRelease recovers the Node from its Message*");

/// Per-thread free list. Zero-initialised and trivially destructible, so
/// the hot path reads it without a TLS guard; the Reaper below (armed on
/// the first pooled release) frees the messages when the thread exits.
struct ThreadList {
  Node* head;
  std::size_t count;
  bool reaper_armed;
  bool torn_down;
};

thread_local ThreadList t_list;

struct Reaper {
  ~Reaper() {
    while (t_list.head != nullptr) {
      Node* node = t_list.head;
      t_list.head = node->next;
      delete node;
    }
    t_list.count = 0;
    // Messages released later in thread teardown (static destructors on
    // the main thread) are freed instead of refilling a dead list.
    t_list.torn_down = true;
  }
};

void ArmReaper() {
  thread_local Reaper reaper;
  (void)reaper;
  t_list.reaper_armed = true;
}

/// Back to default state, keeping every list's storage. Must name every
/// field of net::Message.
void ResetMessage(Message& msg) {
  msg.type = MsgType{};
  msg.src = kServerNode;
  msg.dst = kServerNode;
  msg.xact = 0;
  msg.request_id = 0;
  msg.seq = 0;
  msg.incarnation = 0;
  msg.mode = lock::LockMode::kShared;
  msg.aborted = false;
  msg.invalidate = false;
  msg.pages.clear();
  msg.versions.clear();
  msg.data_pages.clear();
  msg.data_versions.clear();
  msg.fetch_pages.clear();
  msg.read_set.clear();
  msg.read_versions.clear();
  msg.updated_set.clear();
  msg.released_pages.clear();
  msg.evicted_pages.clear();
}

}  // namespace

MessagePtr NewMessage() {
  if (MessagePool::kEnabled) {
    if (Node* node = t_list.head) {
      t_list.head = node->next;
      --t_list.count;
      return MessagePtr(&node->msg);
    }
  }
  return MessagePtr(&(new Node{})->msg);
}

MessagePtr CloneMessage(const Message& msg) {
  MessagePtr copy = NewMessage();
  *copy = msg;
  return copy;
}

void MessageRelease::operator()(Message* msg) const noexcept {
  Node* node = reinterpret_cast<Node*>(msg);
  if (MessagePool::kEnabled && !t_list.torn_down) {
    if (!t_list.reaper_armed) {
      ArmReaper();
    }
    ResetMessage(*msg);
    node->next = t_list.head;
    t_list.head = node;
    ++t_list.count;
    return;
  }
  delete node;
}

std::size_t MessagePool::FreeCount() { return t_list.count; }

}  // namespace ccsim::net
