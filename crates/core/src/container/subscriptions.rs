//! Failure detection and name-management maintenance: heartbeat-timeout
//! sweeps, subscription (re)binding against the directory, variable loss
//! deadlines and call timeout/failover handling.

use super::*;

impl ServiceContainer {
    // ---- failure detection & maintenance ----------------------------------

    pub(super) fn detect_failures(&mut self, now: Micros) {
        let dead = self.directory.expire(now, self.config.node_timeout);
        // Never this node itself: the directory exempts its owner.
        for node in dead {
            self.handle_node_death(node, now);
        }
    }

    pub(super) fn handle_node_death(&mut self, node: NodeId, now: Micros) {
        self.log_line(now, format!("node {node} declared dead; purging name cache"));
        self.subs_dirty = true;
        if self.links.remove(&node).is_some() {
            self.links_changed = true;
            self.active_links.remove(&node);
            self.tracer.record(now, TraceKind::LinkDown, TraceId::NONE, Some(node), 0, None);
        }
        self.tracer.record(now, TraceKind::DirExpire, TraceId::NONE, Some(node), 0, None);
        // Variable/event subscriptions bound to the dead node are *not*
        // unbound here: the directory purge makes their resolution fail,
        // and maintain_subscriptions turns that into the unbind + the
        // "provider lost" notice (one transition, one notification).
        for id in self.rpc.targeting_node(node) {
            self.failover_call(id, now);
        }
        // marea-lint: allow(D1): order-independent in-place reset of receive wiring; nothing sends here
        for interest in self.files.interests.values_mut() {
            if interest.publisher == Some(node) {
                interest.receiver = None;
                interest.publisher = None;
            }
        }
        self.files.seen_announces.retain(|_, (src, _)| *src != node);
    }

    pub(super) fn maintain_subscriptions(&mut self, now: Micros) {
        // Every sweep below walks a HashMap but may send subscription
        // wiring or enqueue notices, so each walk goes through
        // `sweep::sorted_keys_into` to keep runs seed-reproducible (lint
        // D1); one scratch buffer serves all four walks.
        let mut names = std::mem::take(&mut self.sweep_scratch);
        // Variables.
        sorted_keys_into(&self.vars.subscribed, &mut names);
        for name in names.drain(..) {
            let resolution = self.directory.resolve_variable(name.as_str()).map(|p| {
                let (period, validity, ty) = match &p.provision {
                    Provision::Variable { period_us, validity_us, ty, .. } => {
                        (*period_us, *validity_us, ty.clone())
                    }
                    _ => unreachable!("resolve_variable filters kind"),
                };
                (p.service, period, validity, ty)
            });
            enum Act {
                Bind { provider: ServiceId, need_initial: bool, services: Vec<u32>, fresh: bool },
                Lost { services: Vec<u32> },
                None,
            }
            let Some(sub) = self.vars.subscribed.get_mut(&name) else { continue };
            let act = match resolution {
                Some((provider, period, validity, ty)) => {
                    if sub.provider != Some(provider) || !sub.subscribe_sent {
                        let fresh = sub.provider.is_none();
                        sub.bind(provider, period, validity, ty, now);
                        sub.subscribe_sent = true;
                        Act::Bind {
                            provider,
                            need_initial: sub.need_initial,
                            services: sub.services.clone(),
                            fresh,
                        }
                    } else {
                        Act::None
                    }
                }
                None => {
                    if sub.subscribe_sent || sub.provider.is_some() {
                        sub.unbind();
                        sub.subscribe_sent = false;
                        // Only notify on the transition away from bound.
                        Act::Lost { services: sub.services.clone() }
                    } else {
                        Act::None
                    }
                }
            };
            match act {
                Act::Bind { provider, need_initial, services, fresh } => {
                    self.vars.arm_deadline(&name);
                    if provider.node != self.config.node {
                        if self.config.var_distribution == VarDistribution::Multicast {
                            self.transport.join(var_group(&name).0);
                        }
                        // Subscription wiring is control-plane critical:
                        // it rides the reliable channel so a lost datagram
                        // cannot silently orphan the subscription.
                        let msg = Message::SubscribeVar {
                            name: name.clone(),
                            subscriber: self.config.node,
                            need_initial,
                        };
                        self.send_reliable(provider.node, &msg, now);
                    }
                    if fresh {
                        for svc in services {
                            self.push_task(
                                Priority::CALL,
                                svc,
                                TaskPayload::Provider(ProviderNotice::VariableAvailable(
                                    name.clone(),
                                )),
                            );
                        }
                    }
                }
                Act::Lost { services } => {
                    for svc in services {
                        self.push_task(
                            Priority::CALL,
                            svc,
                            TaskPayload::Provider(ProviderNotice::VariableUnavailable(
                                name.clone(),
                            )),
                        );
                    }
                }
                Act::None => {}
            }
        }
        // Events.
        sorted_keys_into(&self.events.subscribed, &mut names);
        for name in names.drain(..) {
            let resolution = self.directory.resolve_event(name.as_str()).map(|p| {
                let ty = match &p.provision {
                    Provision::Event { ty, .. } => ty.clone(),
                    _ => unreachable!("resolve_event filters kind"),
                };
                (p.service, ty)
            });
            enum Act {
                Bind { provider: ServiceId, services: Vec<u32>, fresh: bool },
                Lost { services: Vec<u32> },
                None,
            }
            let Some(sub) = self.events.subscribed.get_mut(&name) else { continue };
            let act = match resolution {
                Some((provider, ty)) => {
                    if sub.provider != Some(provider) || !sub.subscribe_sent {
                        let fresh = sub.provider.is_none();
                        sub.provider = Some(provider);
                        sub.ty = ty;
                        sub.subscribe_sent = true;
                        Act::Bind { provider, services: sub.service_seqs(), fresh }
                    } else {
                        Act::None
                    }
                }
                None => {
                    if sub.subscribe_sent || sub.provider.is_some() {
                        sub.unbind();
                        Act::Lost { services: sub.service_seqs() }
                    } else {
                        Act::None
                    }
                }
            };
            match act {
                Act::Bind { provider, services, fresh } => {
                    if provider.node != self.config.node {
                        let msg = Message::SubscribeEvent {
                            name: name.clone(),
                            subscriber: self.config.node,
                        };
                        self.send_reliable(provider.node, &msg, now);
                    }
                    if fresh {
                        for svc in services {
                            self.push_task(
                                Priority::CALL,
                                svc,
                                TaskPayload::Provider(ProviderNotice::EventAvailable(name.clone())),
                            );
                        }
                    }
                }
                Act::Lost { services } => {
                    for svc in services {
                        self.push_task(
                            Priority::CALL,
                            svc,
                            TaskPayload::Provider(ProviderNotice::EventUnavailable(name.clone())),
                        );
                    }
                }
                Act::None => {}
            }
        }
        // Required functions ("during middleware initialization, the
        // services check that all the functions they need ... are
        // provided", §4.3).
        sorted_keys_into(&self.rpc.required, &mut names);
        for name in names.drain(..) {
            let available =
                self.directory.resolve_function(name.as_str(), CallPolicy::Dynamic, None).is_some();
            let Some(req) = self.rpc.required.get_mut(&name) else { continue };
            let action = {
                let first_check = !req.checked;
                req.checked = true;
                if available != req.available || (first_check && !available) {
                    req.available = available;
                    Some(req.services.clone())
                } else {
                    None
                }
            };
            if let Some(services) = action {
                let notice = if available {
                    ProviderNotice::FunctionAvailable(name.clone())
                } else {
                    ProviderNotice::FunctionUnavailable(name.clone())
                };
                if !available {
                    self.log_line(now, format!("required function `{name}` has no provider"));
                }
                for svc in services {
                    self.push_task(Priority::CALL, svc, TaskPayload::Provider(notice.clone()));
                }
            }
        }
        // File interests that heard an announce before subscribing.
        sorted_keys_into(&self.files.interests, &mut names);
        for resource in names.drain(..) {
            let waiting = self
                .files
                .interests
                .get(&resource)
                .is_some_and(|i| i.receiver.is_none() && !i.services.is_empty());
            if !waiting {
                continue;
            }
            if self.files.outgoing.contains_key(&resource) {
                continue; // local publisher: bypass path handles delivery
            }
            if let Some((src, announce)) = self.files.seen_announces.get(&resource).cloned() {
                if self.directory.node_alive(src) {
                    self.handle_file_announce(src, announce, now);
                }
            }
        }
        self.sweep_scratch = names;
    }

    pub(super) fn sweep_variable_deadlines(&mut self, now: Micros) {
        for name in self.vars.sweep_deadlines(now) {
            self.stats.var_timeouts += 1;
            self.tracer.record(now, TraceKind::VarTimeout, TraceId::NONE, None, 0, Some(&name));
            let services = self.vars.subscribed[&name].services.clone();
            for svc in services {
                self.push_task(
                    Priority::VARIABLE,
                    svc,
                    TaskPayload::VariableTimeout { name: name.clone() },
                );
            }
        }
    }

    pub(super) fn sweep_call_timeouts(&mut self, now: Micros) {
        for id in self.rpc.expired(now) {
            self.failover_call(id, now);
        }
    }

    /// Re-resolves a pending call to a redundant provider, or fails it.
    ///
    /// Paper §4.3: "Upon service failure, if another service is
    /// implementing the same functionality, the middleware will detect the
    /// situation and redirect requests to the redundant service."
    pub(super) fn failover_call(&mut self, id: RequestId, now: Micros) {
        let Some(mut call) = self.rpc.pending.remove(&id) else { return };
        if call.attempts >= call.max_attempts {
            // The caller's retry budget is exhausted (CallOptions
            // contract; container default when unspecified).
            self.stats.call_errors += 1;
            self.push_task(
                Priority::CALL,
                call.caller_seq,
                TaskPayload::DeliverReply { request: id, result: Err(CallError::Timeout) },
            );
            return;
        }
        let next = self
            .directory
            .resolve_function(call.function.as_str(), call.policy, Some(call.target))
            .map(|p| (p.service, p.provision.clone()));
        match next {
            Some((target, Provision::Function { sig, .. })) => {
                call.attempts += 1;
                call.target = target;
                call.returns = sig.returns.clone();
                call.deadline = now + call.attempt_timeout;
                self.stats.call_failovers += 1;
                self.rpc.count_retry(&call.function);
                self.tracer.record(
                    now,
                    TraceKind::CallRetry,
                    call.trace,
                    Some(target.node),
                    id.0,
                    Some(&call.function),
                );
                let codec = self.codecs.default_codec().clone();
                match encode_args(&call.args, &sig, codec.as_ref()) {
                    Ok(payload) => {
                        self.log_line(
                            now,
                            format!("call {id} redirected to redundant provider {target}"),
                        );
                        self.dispatch_call(id, &call, payload, now);
                        self.rpc.track(id, call);
                    }
                    Err(e) => {
                        self.rpc.type_mismatches += 1;
                        self.stats.call_errors += 1;
                        self.push_task(
                            Priority::CALL,
                            call.caller_seq,
                            TaskPayload::DeliverReply { request: id, result: Err(e) },
                        );
                    }
                }
            }
            _ => {
                // "If no service provides the requested function the
                // middleware will warn the system."
                self.stats.call_errors += 1;
                self.log_line(now, format!("call {id} failed: no remaining provider"));
                self.push_task(
                    Priority::CALL,
                    call.caller_seq,
                    TaskPayload::DeliverReply {
                        request: id,
                        result: Err(CallError::ServiceUnavailable),
                    },
                );
            }
        }
    }

    pub(super) fn dispatch_call(
        &mut self,
        id: RequestId,
        call: &PendingCall,
        payload: Bytes,
        now: Micros,
    ) {
        if call.target.node == self.config.node {
            // In-container invocation: no network, straight to the
            // scheduler (Fig. 2 local path).
            self.push_task(
                Priority::CALL,
                call.target.seq,
                TaskPayload::ExecuteCall {
                    request: id,
                    caller: self.config.node,
                    function: call.function.clone(),
                    args: call.args.clone(),
                    trace: call.trace,
                },
            );
        } else {
            let msg = Message::CallRequest {
                request: id,
                function: call.function.clone(),
                target_seq: call.target.seq,
                trace: call.trace.wire(),
                codec: self.codecs.default_id().0,
                payload,
            };
            self.send_reliable(call.target.node, &msg, now);
        }
    }
}
