// Remote invocation (paper §4.3): two-way point-to-point calls with the
// server location abstracted by the middleware — static or load-balanced
// dynamic binding, transparent failover to redundant providers, and the
// "programmed emergency procedure" warning when no provider exists.
#include "middleware/container.h"

#include <algorithm>

#include "encoding/codec.h"

namespace marea::mw {

namespace {
constexpr const char* kLog = "rpc";
constexpr Duration kNoProviderRetry = milliseconds(50);
// Time after start() during which missing required functions do not yet
// raise the emergency procedure (providers may still be joining).
constexpr Duration kRequirementGrace = seconds(1.0);
// Room for an RPC message's varints and status byte, beyond its strings
// and its value: the message's buffer is reserved once, to fit.
constexpr size_t kRpcFieldBytes = 32;
}  // namespace

Status ServiceContainer::register_function(Service& owner,
                                           const std::string& name,
                                           enc::TypePtr args_type,
                                           enc::TypePtr result_type,
                                           FunctionHandler handler) {
  if (!args_type || !result_type) {
    return invalid_argument_error("function types are null");
  }
  if (!handler) return invalid_argument_error("function handler empty");
  FunctionEntry& f = functions_[name];
  if (f.prov) {
    return already_exists_error("function '" + name +
                                "' already provided in this container");
  }
  f.prov = FunctionProvision{&owner, std::move(args_type), std::move(handler)};
  manifest_changed();
  return Status::ok();
}

Status ServiceContainer::add_function_requirement(Service& owner,
                                                  const std::string& function) {
  FunctionEntry& f = functions_[function];
  f.requirers.insert(owner.name());
  if (running_) check_function_requirements();
  // Report current availability so callers can gate their startup.
  if (f.prov) return Status::ok();
  if (directory_.usable_count(proto::ItemKind::kFunction, function) > 0) {
    return Status::ok();
  }
  return unavailable_error("function '" + function +
                           "' has no provider (yet)");
}

void ServiceContainer::check_function_requirements() {
  // During the join window, absence is expected — re-check once it closes.
  if (running_ && now() - started_at_ < kRequirementGrace) {
    if (!requirement_timer_.armed()) {
      requirement_timer_.arm(executor_, kRequirementGrace,
                             sched::Priority::kBackground,
                             [this] { check_function_requirements(); });
    }
    return;
  }
  for (auto& [function, f] : functions_) {
    if (f.requirers.empty()) continue;
    bool available =
        f.prov ||
        directory_.usable_count(proto::ItemKind::kFunction, function) > 0;
    if (!available && !f.in_emergency && running_) {
      f.in_emergency = true;
      std::string who;
      for (const auto& s : f.requirers) {
        if (!who.empty()) who += ",";
        who += s;
      }
      emergency("required function '" + function +
                "' has no provider (needed by " + who + ")");
    } else if (available && f.in_emergency) {
      f.in_emergency = false;
      MAREA_LOG(kInfo, kLog) << "function '" << function
                             << "' available again";
    }
  }
}

void ServiceContainer::call_function(Service* caller,
                                     const std::string& function,
                                     enc::Value args, CallCallback callback,
                                     CallOptions options) {
  stats_.rpc_calls++;
  usage_of(caller).rpc_calls_issued++;

  // Same-container provider: bypass the network entirely.
  if (provision(functions_, function)) {
    executor_.post(
        sched::Priority::kRpc,
        [this, function, args = std::move(args),
         callback = std::move(callback)]() mutable {
          callback(serve_call(function, args));
        },
        config_.handler_cost);
    return;
  }

  const uint64_t rid = next_request_id_++;
  PendingCall call;
  call.function = function;
  call.issued = now();
  call.args = std::move(args);
  call.callback = std::move(callback);
  call.options = options;
  call.failovers_left =
      options.binding == RpcBinding::kDynamic ? options.max_failovers : 0;
  trace_ev(obs::TraceEvent::kSend, obs::TraceKind::kRpc, rid);
  PendingCall& pending =
      pending_calls_.emplace(rid, std::move(call)).first->second;
  // Overall deadline regardless of retries/failovers. The closure finds
  // the call by id, so it needs no OwnedTimer (and no token per call).
  pending.timer = executor_.schedule(
      options.timeout, sched::Priority::kRpc,
      [this, rid] { fail_over_call(rid, "call timeout"); });

  dispatch_call_attempt(rid);
}

proto::ContainerId ServiceContainer::pick_provider(
    const std::string& function, const CallOptions& options,
    const std::set<proto::ContainerId>& exclude) {
  FunctionBinding& binding = functions_[function].binding;
  const bool is_static = options.binding == RpcBinding::kStatic;
  // Static: pin the first choice and keep using it (§4.3 "static
  // allocations … are useful in critical services"); once it is gone, the
  // call fails. Dynamic: round-robin across redundant providers (§4.3
  // "load balancing techniques are used").
  auto eligible = [&](const ProviderRecord& p) {
    return p.usable() && !exclude.count(p.container) &&
           (!is_static || binding.pinned == proto::kInvalidContainer ||
            p.container == binding.pinned);
  };
  const auto records = directory_.records(proto::ItemKind::kFunction, function);
  const auto usable = std::count_if(records.begin(), records.end(), eligible);
  if (usable == 0) return proto::kInvalidContainer;
  auto skip = is_static ? 0 : binding.rr_cursor++ % usable;
  for (const ProviderRecord& p : records) {
    if (!eligible(p) || skip-- > 0) continue;
    if (is_static) binding.pinned = p.container;
    return p.container;
  }
  return proto::kInvalidContainer;  // not reached: `usable` > skip
}

void ServiceContainer::dispatch_call_attempt(uint64_t rid) {
  auto it = pending_calls_.find(rid);
  if (it == pending_calls_.end()) return;
  PendingCall& call = it->second;

  const proto::ContainerId provider =
      pick_provider(call.function, call.options, call.tried);
  if (provider == proto::kInvalidContainer) {
    // No provider (yet): providers may still be joining — retry until the
    // call deadline fires.
    MAREA_LOG(kTrace, kLog) << "call " << rid << " '" << call.function
                            << "': no provider yet";
    call.target = proto::kInvalidContainer;
    executor_.schedule(kNoProviderRetry, sched::Priority::kRpc,
                       [this, rid] { dispatch_call_attempt(rid); });
    return;
  }

  call.target = provider;
  proto::RpcRequestMsg msg;
  msg.request_id = rid;
  msg.function = call.function;
  msg.args = Bytes::borrow(encode_rpc_value(call.args));
  ByteWriter w(kRpcFieldBytes + msg.function.size() + msg.args.size());
  msg.encode(w);
  link_send(provider, proto::InnerType::kRpcRequest, w.take());
}

BytesView ServiceContainer::encode_rpc_value(const enc::Value& value) {
  rpc_scratch_.clear();
  ByteWriter w(rpc_scratch_);
  enc::encode_tagged(value, w);
  return w.view();
}

void ServiceContainer::fail_over_call(uint64_t request_id,
                                      const std::string& why) {
  auto it = pending_calls_.find(request_id);
  if (it == pending_calls_.end()) return;
  PendingCall& call = it->second;

  if (why == "call timeout") {
    // The overall deadline expired: report failure now.
    finish_call(request_id,
                timeout_error("call '" + call.function + "' timed out"));
    return;
  }

  if (call.target != proto::kInvalidContainer) {
    call.tried.insert(call.target);
    call.target = proto::kInvalidContainer;
  }
  if (call.failovers_left-- > 0) {
    stats_.rpc_failovers++;
    trace_ev(obs::TraceEvent::kFailover, obs::TraceKind::kRpc, request_id);
    MAREA_LOG(kInfo, kLog) << "failing over call '" << call.function << "' ("
                           << why << ")";
    dispatch_call_attempt(request_id);
    return;
  }
  finish_call(request_id, unavailable_error("call '" + call.function +
                                            "' failed: " + why));
}

void ServiceContainer::finish_call(uint64_t request_id,
                                   StatusOr<enc::Value> result) {
  auto it = pending_calls_.find(request_id);
  if (it == pending_calls_.end()) return;
  executor_.cancel(it->second.timer);
  trace_ev(obs::TraceEvent::kDeliver, obs::TraceKind::kRpc, request_id,
           result.ok() ? 1 : 0);
  if (rpc_latency_us_) {
    rpc_latency_us_->record((now() - it->second.issued).ns / 1000);
  }
  CallCallback callback = std::move(it->second.callback);
  if (!result.ok()) {
    stats_.rpc_failures++;
    MAREA_LOG(kDebug, kLog) << "call '" << it->second.function << "' (id "
                            << request_id << ", target " << it->second.target
                            << ") failed: " << result.status().to_string();
  }
  pending_calls_.erase(it);
  callback(std::move(result));
}

void ServiceContainer::on_rpc_request(proto::ContainerId from,
                                      const proto::RpcRequestMsg& msg) {
  if (!provision(functions_, msg.function)) {
    send_rpc_response(from, msg.request_id,
                      not_found_error("function '" + msg.function +
                                      "' not provided here"));
    return;
  }
  auto args = enc::decode_tagged(as_bytes_view(msg.args));
  if (!args.ok()) {
    send_rpc_response(from, msg.request_id,
                      data_loss_error("arguments failed to decode"));
    return;
  }
  // Run the service's handler at RPC priority, then respond.
  executor_.post(
      sched::Priority::kRpc,
      [this, from, request_id = msg.request_id, function = msg.function,
       args = std::move(args).value()] {
        send_rpc_response(from, request_id, serve_call(function, args));
      },
      config_.handler_cost);
}

void ServiceContainer::send_rpc_response(proto::ContainerId to,
                                         uint64_t request_id,
                                         const StatusOr<enc::Value>& result) {
  proto::RpcResponseMsg resp;
  resp.request_id = request_id;
  resp.status_code = static_cast<uint8_t>(result.status().code());
  if (result.ok()) {
    resp.result = Bytes::borrow(encode_rpc_value(*result));
  } else {
    resp.error = result.status().message();
  }
  ByteWriter w(kRpcFieldBytes + resp.error.size() + resp.result.size());
  resp.encode(w);
  link_send(to, proto::InnerType::kRpcResponse, w.take());
}

StatusOr<enc::Value> ServiceContainer::serve_call(const std::string& function,
                                                  const enc::Value& args) {
  // Looked up again when the handler gets the CPU, not captured when the
  // call arrived: a stop() in between (a node killed while the call
  // waited) has erased the provision.
  FunctionProvision* prov = provision(functions_, function);
  if (!prov) return unavailable_error("function '" + function + "' withdrawn");
  stats_.rpc_served++;
  usage_of(prov->owner).rpc_calls_served++;
  std::optional<StatusOr<enc::Value>> result;  // no error unless it throws
  guard(prov->owner, "function handler",
        [&] { result.emplace(prov->handler(args)); });
  if (!result) return internal_error("function handler crashed");
  return std::move(*result);
}

void ServiceContainer::on_rpc_response(proto::ContainerId from,
                                       const proto::RpcResponseMsg& msg) {
  auto it = pending_calls_.find(msg.request_id);
  if (it == pending_calls_.end()) return;
  if (it->second.target != from) return;  // stale reply from a failed-over peer

  if (msg.status_code != static_cast<uint8_t>(StatusCode::kOk)) {
    Status error(static_cast<StatusCode>(msg.status_code), msg.error);
    // A provider that answered "not found"/"unavailable" is a candidate
    // for failover; application-level errors are final.
    if (error.code() == StatusCode::kNotFound ||
        error.code() == StatusCode::kUnavailable) {
      fail_over_call(msg.request_id, "provider error: " + error.to_string());
      return;
    }
    finish_call(msg.request_id, error);
    return;
  }
  auto result = enc::decode_tagged(as_bytes_view(msg.result));
  if (!result.ok()) {
    finish_call(msg.request_id, result.status());
    return;
  }
  finish_call(msg.request_id, std::move(result).value());
}

}  // namespace marea::mw
