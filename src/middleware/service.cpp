#include "middleware/service.h"

#include <cassert>

#include "middleware/container.h"

namespace marea::mw {

namespace {
Status not_attached() {
  return failed_precondition_error(
      "service is not attached to a container yet");
}
}  // namespace

template <typename EntryBase>
Status ProvisionHandle<EntryBase>::publish(enc::Value value) {
  if (!container_) return not_attached();
  return container_->publish(*this, std::move(value));
}
template class ProvisionHandle<VarEntryBase>;
template class ProvisionHandle<EventEntryBase>;

ServiceContainer& Service::container() const {
  assert(container_ && "service not added to a container");
  return *container_;
}

StatusOr<VariableHandle> Service::provide_variable(const std::string& name,
                                                   enc::TypePtr type,
                                                   VariableQoS qos) {
  if (!container_) return not_attached();
  return container_->register_variable(*this, name, std::move(type), qos);
}

Status Service::subscribe_variable(const std::string& name, enc::TypePtr type,
                                   VariableHandler handler,
                                   VariableTimeoutHandler on_timeout) {
  if (!container_) return not_attached();
  return container_->register_var_subscription(
      *this, name, std::move(type), std::move(handler), std::move(on_timeout));
}

Status Service::unsubscribe_variable(const std::string& name) {
  if (!container_) return not_attached();
  return container_->unregister_var_subscription(*this, name);
}

Status Service::unsubscribe_event(const std::string& name) {
  if (!container_) return not_attached();
  return container_->unregister_event_subscription(*this, name);
}

Status Service::unsubscribe_file(const std::string& name) {
  if (!container_) return not_attached();
  return container_->unregister_file_subscription(*this, name);
}

StatusOr<enc::Value> Service::read_variable(const std::string& name) const {
  if (!container_) return not_attached();
  return container_->read_variable(name);
}

StatusOr<EventHandle> Service::provide_event(const std::string& name,
                                             enc::TypePtr type) {
  if (!container_) return not_attached();
  return container_->register_event(*this, name, std::move(type));
}

Status Service::subscribe_event(const std::string& name, enc::TypePtr type,
                                EventHandler handler, EventQoS qos) {
  if (!container_) return not_attached();
  return container_->register_event_subscription(*this, name, std::move(type),
                                                 std::move(handler), qos);
}

Status Service::provide_function(const std::string& name,
                                 enc::TypePtr args_type,
                                 enc::TypePtr result_type,
                                 FunctionHandler handler) {
  if (!container_) return not_attached();
  return container_->register_function(*this, name, std::move(args_type),
                                       std::move(result_type),
                                       std::move(handler));
}

void Service::call(const std::string& function, enc::Value args,
                   CallCallback callback, CallOptions options) {
  if (!container_) {
    callback(not_attached());
    return;
  }
  container_->call_function(this, function, std::move(args),
                            std::move(callback), options);
}

Status Service::require_function(const std::string& function) {
  if (!container_) return not_attached();
  return container_->add_function_requirement(*this, function);
}

Status Service::publish_file(const std::string& name, Buffer content) {
  if (!container_) return not_attached();
  return container_->publish_file_resource(*this, name, std::move(content));
}

Status Service::subscribe_file(const std::string& name,
                               FileCompleteHandler on_done,
                               FileProgressHandler on_progress) {
  if (!container_) return not_attached();
  return container_->register_file_subscription(
      *this, name, std::move(on_done), std::move(on_progress));
}

TimePoint Service::now() const { return container().now(); }

void Service::schedule(Duration delay, std::function<void()> fn,
                       sched::Priority priority) {
  container().schedule_for_service(delay, std::move(fn), priority);
}

}  // namespace marea::mw
