// Name management (paper §3): the periodic rebinding loop that
// re-resolves unbound and orphaned subscriptions. The directory itself is
// filled only from manifests (on_hello); a name nobody provides yet sends
// nothing — the next applied hello or resubscribe tick retries the bind.
#include "middleware/container.h"

namespace marea::mw {

void ServiceContainer::resubscribe_tick() {
  if (!running_) return;
  // Subscriptions a handler emptied while they were being walked.
  auto retire_emptied = [this](auto& table) {
    for (auto it = table.begin(); it != table.end();) {
      auto cur = it++;
      if (cur->second.sub && cur->second.sub->retirable()) {
        retire_subscription(cur);
      }
    }
  };
  retire_emptied(vars_);
  retire_emptied(events_);
  retire_emptied(files_);
  rebind_after_directory_change();
  resub_timer_.arm(executor_, config_.resubscribe_interval,
                   sched::Priority::kBackground,
                   [this] { resubscribe_tick(); });
}

void ServiceContainer::rebind_after_directory_change() {
  auto bind_all = [this](auto& table) {
    for (auto& [name, e] : table) {
      if (e.sub) try_bind(e);
    }
  };
  bind_all(vars_);
  bind_all(events_);
  bind_all(files_);
}

}  // namespace marea::mw
