// Service programming model (paper §3): "the services are semantic units
// that behave as producers of data and as consumers of data coming from
// other services. The localization of the other services is not
// important because the middleware manages their discovery."
//
// A Service subclass declares what it provides and consumes — variables,
// events, remote functions, file resources — from on_start(), using the
// protected API below. It never touches the network, names of peers, or
// message formats: the owning ServiceContainer does all of that.
//
//   class Gps : public mw::Service {
//    public:
//     Gps() : Service("gps") {}
//     Status on_start() override {
//       auto handle = provide_variable<GpsFix>("gps.position",
//                                              {.period = milliseconds(100)});
//       if (!handle.ok()) return handle.status();
//       position_ = *handle;
//       return Status::ok();
//     }
//    private:
//     mw::VariableHandle position_;
//   };
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "encoding/typed.h"
#include "encoding/value.h"
#include "middleware/qos.h"
#include "protocol/messages.h"
#include "sched/executor.h"
#include "util/status.h"

namespace marea::mw {

class ServiceContainer;
class Service;

// --- callback signatures ----------------------------------------------------

struct SampleInfo {
  uint64_t seq = 0;
  TimePoint publish_time{};
  Duration latency{};       // receive time - publish time (same clock in sim)
  bool from_snapshot = false;  // the guaranteed initial value (§4.1)
};

using VariableHandler =
    std::function<void(const enc::Value& value, const SampleInfo& info)>;
// Container-issued warning after a silence longer than the QoS deadline.
using VariableTimeoutHandler = std::function<void(Duration silence)>;

struct EventInfo {
  uint64_t seq = 0;
  TimePoint publish_time{};
  Duration latency{};
};

using EventHandler =
    std::function<void(const enc::Value& value, const EventInfo& info)>;

// Server-side function implementation.
using FunctionHandler =
    std::function<StatusOr<enc::Value>(const enc::Value& args)>;
// Client-side completion.
using CallCallback = std::function<void(StatusOr<enc::Value> result)>;

using FileCompleteHandler =
    std::function<void(const proto::FileMeta& meta, const Buffer& content)>;
using FileProgressHandler =
    std::function<void(const proto::FileMeta& meta, uint32_t chunks_have,
                       uint32_t chunks_total)>;

// --- provision handles --------------------------------------------------

// What a provision handle addresses: its container's entry for the name.
// Empty bases of the entry types in container.h, opaque here.
struct VarEntryBase {};
struct EventEntryBase {};

// Publishes through one provision: a variable's samples (VariableHandle,
// best effort, §4.1) or an event's occurrences (EventHandle, guaranteed
// delivery, §4.2; the value may be an empty struct for events that "have
// meaning by themselves"). Default-constructed handles are inert until
// assigned from provide_variable() or provide_event(). A handle lives as
// long as its registration: once the container stops, publishing through
// it fails with kFailedPrecondition, and the service provides again (from
// on_start) to get a fresh one.
template <typename EntryBase>
class ProvisionHandle {
 public:
  ProvisionHandle() = default;

  Status publish(enc::Value value);
  template <typename T>
  Status publish(const T& obj) {
    return publish(enc::to_value(obj));
  }

  const std::string& name() const { return name_; }
  bool valid() const { return container_ != nullptr; }

 private:
  friend class ServiceContainer;
  ProvisionHandle(ServiceContainer* c, std::string n, EntryBase* entry,
                  uint64_t epoch)
      : container_(c), name_(std::move(n)), entry_(entry), epoch_(epoch) {}
  ServiceContainer* container_ = nullptr;
  std::string name_;
  // The container's entry for name_, alive while the container's
  // registration epoch is still epoch_.
  EntryBase* entry_ = nullptr;
  uint64_t epoch_ = 0;
};
using VariableHandle = ProvisionHandle<VarEntryBase>;
using EventHandle = ProvisionHandle<EventEntryBase>;

// --- Service -----------------------------------------------------------

class Service {
 public:
  explicit Service(std::string name) : name_(std::move(name)) {}
  virtual ~Service() = default;

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  const std::string& name() const { return name_; }

  // Lifecycle, driven by the container (§3 "service management").
  // Register provisions and subscriptions from on_start().
  virtual Status on_start() { return Status::ok(); }
  virtual void on_stop() {}
  // Polled by the container watchdog; a non-OK result marks the service
  // failed and triggers the domain-wide status notification.
  virtual Status health_check() { return Status::ok(); }

 protected:
  // ---- variables (§4.1) ----
  StatusOr<VariableHandle> provide_variable(const std::string& name,
                                            enc::TypePtr type,
                                            VariableQoS qos = {});
  template <typename T>
  StatusOr<VariableHandle> provide_variable(const std::string& name,
                                            VariableQoS qos = {}) {
    return provide_variable(name, enc::descriptor_of<T>(), qos);
  }

  Status subscribe_variable(const std::string& name, enc::TypePtr type,
                            VariableHandler handler,
                            VariableTimeoutHandler on_timeout = {});
  template <typename T>
  Status subscribe_variable(
      const std::string& name,
      std::function<void(const T&, const SampleInfo&)> handler,
      VariableTimeoutHandler on_timeout = {}) {
    return subscribe_variable(
        name, enc::descriptor_of<T>(),
        [handler = std::move(handler)](const enc::Value& v,
                                       const SampleInfo& info) {
          T obj{};
          if (enc::from_value(v, obj)) handler(obj, info);
        },
        std::move(on_timeout));
  }

  // Removes this service's subscription; when it was the container's last
  // subscriber of `name`, the provider is told and the multicast group is
  // left.
  Status unsubscribe_variable(const std::string& name);

  // Last cached value if still within its validity window; kTimeout when
  // stale, kNotFound before the first sample/snapshot.
  StatusOr<enc::Value> read_variable(const std::string& name) const;

  // ---- events (§4.2) ----
  StatusOr<EventHandle> provide_event(const std::string& name,
                                      enc::TypePtr type);
  template <typename T>
  StatusOr<EventHandle> provide_event(const std::string& name) {
    return provide_event(name, enc::descriptor_of<T>());
  }

  Status subscribe_event(const std::string& name, enc::TypePtr type,
                         EventHandler handler, EventQoS qos = {});
  template <typename T>
  Status subscribe_event(
      const std::string& name,
      std::function<void(const T&, const EventInfo&)> handler,
      EventQoS qos = {}) {
    return subscribe_event(
        name, enc::descriptor_of<T>(),
        [handler = std::move(handler)](const enc::Value& v,
                                       const EventInfo& info) {
          T obj{};
          if (enc::from_value(v, obj)) handler(obj, info);
        },
        qos);
  }

  Status unsubscribe_event(const std::string& name);

  // ---- remote invocation (§4.3) ----
  Status provide_function(const std::string& name, enc::TypePtr args_type,
                          enc::TypePtr result_type, FunctionHandler handler);
  template <typename Req, typename Resp>
  Status provide_function(
      const std::string& name,
      std::function<StatusOr<Resp>(const Req&)> handler) {
    return provide_function(
        name, enc::descriptor_of<Req>(), enc::descriptor_of<Resp>(),
        [handler = std::move(handler)](
            const enc::Value& args) -> StatusOr<enc::Value> {
          Req req{};
          if (!enc::from_value(args, req)) {
            return invalid_argument_error("request does not fit schema");
          }
          auto resp = handler(req);
          if (!resp.ok()) return resp.status();
          return enc::to_value(*resp);
        });
  }

  // Asynchronous remote call; the callback runs on the container executor.
  void call(const std::string& function, enc::Value args,
            CallCallback callback, CallOptions options = {});
  template <typename Req, typename Resp>
  void call(const std::string& function, const Req& req,
            std::function<void(StatusOr<Resp>)> callback,
            CallOptions options = {}) {
    call(
        function, enc::to_value(req),
        [callback = std::move(callback)](StatusOr<enc::Value> result) {
          if (!result.ok()) {
            callback(result.status());
            return;
          }
          Resp resp{};
          if (!enc::from_value(*result, resp)) {
            callback(data_loss_error("response does not fit schema"));
            return;
          }
          callback(std::move(resp));
        },
        options);
  }

  // "During middleware initialization, the services check that all the
  // functions they need … are provided" (§4.3). Registers the dependency:
  // the container warns through the emergency handler whenever the set of
  // providers for `function` drops to zero.
  Status require_function(const std::string& function);

  // ---- file transmission (§4.4) ----
  // (Re-)publishes a named resource; each call bumps the revision.
  Status publish_file(const std::string& name, Buffer content);
  Status subscribe_file(const std::string& name, FileCompleteHandler on_done,
                        FileProgressHandler on_progress = {});
  Status unsubscribe_file(const std::string& name);

  // ---- misc ----
  TimePoint now() const;
  // Runs `fn` after `delay` on the container's scheduler.
  void schedule(Duration delay, std::function<void()> fn,
                sched::Priority priority = sched::Priority::kBackground);

  ServiceContainer& container() const;

 private:
  friend class ServiceContainer;
  ServiceContainer* container_ = nullptr;  // set when added to a container
  size_t slot_ = 0;  // index of its record in the container
  std::string name_;
};

}  // namespace marea::mw
