//! Frame input and per-tick pumps: transport drain, message dispatch,
//! reliable-link polling and file-transfer pumping.

use marea_protocol::messages::announce_hash;

use super::*;

impl ServiceContainer {
    // ---- frame input -----------------------------------------------------

    pub(super) fn pump_transport(&mut self, now: Micros) {
        while let Some((_, frame_bytes)) = self.transport.recv() {
            self.stats.frames_in += 1;
            // Any frame may create, feed or renegotiate a link.
            self.links_changed = true;
            let Ok(frame) = Frame::decode_shared(&frame_bytes) else {
                continue; // corrupt frames are dropped (CRC)
            };
            let src = frame.header().src;
            if src == self.config.node {
                continue;
            }
            let Ok(msg) = Message::from_frame(&frame) else {
                continue;
            };
            self.handle_message(src, msg, now);
        }
    }

    pub(super) fn handle_message(&mut self, src: NodeId, msg: Message, now: Micros) {
        match msg {
            Message::Hello { container, incarnation, fec_cap } => {
                self.directory.apply_hello(src, container, incarnation, fec_cap, now);
                // A Hello can upgrade (or downgrade) the code rate of an
                // already-established link: renegotiate in place.
                let negotiated = self.fec_cap_for(src);
                if let Some(link) = self.links.get_mut(&src) {
                    link.negotiate_fec(negotiated);
                }
                self.subs_dirty = true;
                self.request_reannounce(now);
            }
            Message::Heartbeat { incarnation, load_permille, fec_cap, .. } => {
                let prior = self.directory.node(src).map(|n| n.incarnation);
                self.directory.apply_heartbeat(src, incarnation, load_permille, fec_cap, now);
                // The refreshed capability may upgrade a link negotiated
                // before the peer's Hello was seen (late attach, lossy
                // bring-up): renegotiate in place, exactly as `Hello` does.
                let negotiated = self.fec_cap_for(src);
                if let Some(link) = self.links.get_mut(&src) {
                    link.negotiate_fec(negotiated);
                }
                if prior != Some(incarnation) {
                    // Unknown node or incarnation change: availability may
                    // have shifted; plain refresh heartbeats don't re-plan.
                    self.subs_dirty = true;
                }
                if prior.is_none() {
                    // A node we have no catalogue for (its Hello/Announce was
                    // lost): introduce ourselves unicast — which makes it
                    // reply with its catalogue — and hand it ours the same
                    // way. Both legs are unicast so a partition heal cannot
                    // storm the control group with full-catalogue broadcasts.
                    let hello = Message::Hello {
                        container: self.config.name.clone(),
                        incarnation: self.incarnation,
                        fec_cap: self.config.fec.advertised_cap().wire_tag(),
                    };
                    self.send_message(TransportDestination::Node(src.0), &hello);
                    let entries = self.announce_entries();
                    let ann = Message::Announce { incarnation: self.incarnation, entries };
                    self.send_message(TransportDestination::Node(src.0), &ann);
                }
            }
            Message::Bye => {
                self.directory.apply_bye(src);
                self.handle_node_death(src, now);
            }
            Message::Announce { incarnation, entries } => {
                self.tracer.record(
                    now,
                    TraceKind::DirAnnounce,
                    TraceId::NONE,
                    Some(src),
                    entries.len() as u64,
                    None,
                );
                self.directory.apply_announce(src, &entries, now);
                let hash = announce_hash(incarnation, &entries);
                self.directory.set_catalogue_digest(src, hash, entries.len() as u32);
                self.subs_dirty = true;
            }
            Message::AnnounceDigest { incarnation, entry_count, catalogue_hash } => {
                if self.directory.catalogue_matches(src, incarnation, entry_count, catalogue_hash) {
                    self.directory.touch(src, now);
                } else {
                    // Our copy of the peer's catalogue disagrees (or we never
                    // applied one): pull the full catalogue unicast.
                    self.send_message(TransportDestination::Node(src.0), &Message::AnnounceRequest);
                }
            }
            Message::AnnounceRequest => {
                let entries = self.announce_entries();
                let msg = Message::Announce { incarnation: self.incarnation, entries };
                self.send_message(TransportDestination::Node(src.0), &msg);
            }
            Message::ServiceStatus { service_seq, state, .. } => {
                self.directory.apply_status(src, service_seq, state);
                self.subs_dirty = true;
                if !state.is_available() {
                    let failed = ServiceId::new(src, service_seq);
                    let affected: Vec<RequestId> = sorted_keys(&self.rpc.pending)
                        .into_iter()
                        .filter(|id| self.rpc.pending[id].target == failed)
                        .collect();
                    for id in affected {
                        self.failover_call(id, now);
                    }
                }
            }
            Message::SubscribeVar { name, subscriber, need_initial } => {
                self.handle_subscribe_var(name, subscriber, need_initial, now);
            }
            Message::UnsubscribeVar { name, subscriber } => {
                if let Some(pv) = self.vars.published.get_mut(&name) {
                    pv.remote_subscribers.remove(&subscriber);
                }
            }
            Message::SubscribeEvent { name, subscriber } => {
                if let Some(pe) = self.events.published.get_mut(&name) {
                    pe.remote_subscribers.insert(subscriber);
                }
            }
            Message::UnsubscribeEvent { name, subscriber } => {
                if let Some(pe) = self.events.published.get_mut(&name) {
                    pe.remote_subscribers.remove(&subscriber);
                }
            }
            Message::VarSample { name, seq, stamp_us, validity_us, trace, codec, payload } => {
                self.handle_var_sample(
                    name,
                    seq,
                    stamp_us,
                    validity_us,
                    TraceId::from_wire(src, trace),
                    codec,
                    payload,
                    now,
                );
            }
            Message::RelData { seq, payload, .. } => {
                let fec = self.fec_cap_for(src);
                let fresh_link = !self.links.contains_key(&src);
                let deliverables = {
                    let link = self.links.entry(src).or_insert_with(|| {
                        let mut l = ReliableLink::new(src, self.config.arq);
                        l.negotiate_fec(fec);
                        l
                    });
                    link.on_data(seq, payload)
                };
                if fresh_link {
                    self.tracer.record(now, TraceKind::LinkUp, TraceId::NONE, Some(src), 0, None);
                }
                self.active_links.insert(src);
                for inner in deliverables {
                    if let Ok(inner_msg) = Message::decode_tagged_shared(&inner) {
                        self.handle_message(src, inner_msg, now);
                    }
                }
            }
            Message::RelAck { cumulative, sack, loss_permille, .. } => {
                let (out, recovered) = match self.links.get_mut(&src) {
                    Some(link) => {
                        self.active_links.insert(src);
                        let out = link.on_ack(cumulative, sack, loss_permille, now);
                        (out, link.take_recoveries())
                    }
                    None => (Vec::new(), Vec::new()),
                };
                for us in recovered {
                    self.tracer.record_rto_recovery(us);
                }
                self.send_link_messages(src, out);
            }
            Message::FecShard { group, index, k, r, payload, .. } => {
                // With FEC on, the first message of a reliable conversation
                // arrives as a shard, so this must create the link exactly
                // like the `RelData` arm does.
                let fec = self.fec_cap_for(src);
                let fresh_link = !self.links.contains_key(&src);
                let (recovered, repair_delta) = {
                    let link = self.links.entry(src).or_insert_with(|| {
                        let mut l = ReliableLink::new(src, self.config.arq);
                        l.negotiate_fec(fec);
                        l
                    });
                    let before = link.fec_rx_stats().recovered;
                    let inners = link.on_fec_shard(group, index, k, r, &payload);
                    let delta = link.fec_rx_stats().recovered - before;
                    self.stats.fec.shards_in += 1;
                    self.stats.fec.recovered += delta;
                    (inners, delta)
                };
                if fresh_link {
                    self.tracer.record(now, TraceKind::LinkUp, TraceId::NONE, Some(src), 0, None);
                }
                self.active_links.insert(src);
                if repair_delta > 0 {
                    self.tracer.record(
                        now,
                        TraceKind::FecRecover,
                        TraceId::NONE,
                        Some(src),
                        repair_delta,
                        None,
                    );
                }
                for inner in recovered {
                    if let Ok(inner_msg) = Message::decode_tagged_shared(&inner) {
                        self.handle_message(src, inner_msg, now);
                    }
                }
            }
            Message::EventData { name, seq, stamp_us, trace, codec, payload } => {
                let trace = TraceId::from_wire(src, trace);
                self.handle_event_data(name, seq, stamp_us, trace, codec, payload, now);
            }
            Message::CallRequest { request, function, target_seq, trace, codec, payload } => {
                self.handle_call_request(
                    src,
                    request,
                    function,
                    target_seq,
                    TraceId::from_wire(src, trace),
                    codec,
                    payload,
                    now,
                );
            }
            Message::CallReply { request, status, trace, codec, payload } => {
                // A reply's trace was minted by the caller — us — so the
                // implied origin is this node, not the frame's src.
                let trace = TraceId::from_wire(self.config.node, trace);
                self.handle_call_reply(request, status, trace, codec, payload, now);
            }
            Message::FileAnnounce { .. } => {
                self.subs_dirty = true;
                self.handle_file_announce(src, msg, now);
            }
            Message::FileSubscribe { transfer, subscriber } => {
                if let Some(name) = self.files.resource_of(transfer).cloned() {
                    if let Some(out) = self.files.outgoing.get_mut(&name) {
                        out.sender.on_subscribe(subscriber);
                        out.complete_notified = false;
                    }
                }
            }
            Message::FileChunk { transfer, revision, index, payload } => {
                self.handle_file_chunk(transfer, revision, index, payload, now);
            }
            Message::FileQuery { transfer, revision } => {
                let response = self
                    .files
                    .resource_of(transfer)
                    .and_then(|name| self.files.interests.get(name))
                    .and_then(|interest| interest.receiver.as_ref())
                    .and_then(|rx| rx.on_query(revision));
                if let Some(response) = response {
                    self.send_reliable(src, &response, now);
                }
            }
            Message::FileAck { transfer, revision, subscriber } => {
                if let Some(name) = self.files.resource_of(transfer).cloned() {
                    if let Some(out) = self.files.outgoing.get_mut(&name) {
                        out.sender.on_ack(subscriber, revision);
                    }
                    self.notify_distribution_complete(&name);
                }
            }
            Message::FileNack { transfer, revision, subscriber, runs } => {
                if let Some(name) = self.files.resource_of(transfer).cloned() {
                    if let Some(out) = self.files.outgoing.get_mut(&name) {
                        let _ = out.sender.on_nack(subscriber, revision, &runs);
                        out.complete_notified = false;
                    }
                }
            }
            Message::FileCancel { transfer } => {
                if let Some(name) = self.files.resource_of(transfer).cloned() {
                    if let Some(interest) = self.files.interests.get_mut(&name) {
                        interest.receiver = None;
                        interest.publisher = None;
                        self.subs_dirty = true;
                    }
                }
            }
            Message::Fragment { msg_id, index, count, payload } => {
                if let Ok(Some(full)) =
                    self.reassembler.offer(src, msg_id, index, count, payload, now)
                {
                    if let Ok(inner) = Message::decode_tagged_shared(&full) {
                        self.handle_message(src, inner, now);
                    }
                }
            }
        }
    }

    pub(super) fn handle_subscribe_var(
        &mut self,
        name: Name,
        subscriber: NodeId,
        need_initial: bool,
        now: Micros,
    ) {
        let initial = {
            let Some(pv) = self.vars.published.get_mut(&name) else { return };
            pv.remote_subscribers.insert(subscriber);
            match pv.last.clone() {
                Some((payload, stamp)) if need_initial && pv.last_is_valid(now) => {
                    Some((payload, stamp, pv.seq, pv.validity_us))
                }
                _ => None,
            }
        };
        if let Some((payload, stamp, seq, validity_us)) = initial {
            // The resend gets a fresh causal id: it is this container
            // re-publishing the retained sample towards one subscriber.
            let trace = self.tracer.mint();
            self.tracer.record(
                now,
                TraceKind::VarPublish,
                trace,
                Some(subscriber),
                seq,
                Some(&name),
            );
            let msg = Message::VarSample {
                name,
                seq,
                stamp_us: stamp.as_micros(),
                validity_us,
                trace: trace.wire(),
                codec: self.codecs.default_id().0,
                payload,
            };
            // The initial exact value is *guaranteed* (§4.1), so unlike the
            // periodic samples it travels on the reliable channel.
            self.send_reliable(subscriber, &msg, now);
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_var_sample(
        &mut self,
        name: Name,
        seq: u64,
        stamp_us: u64,
        validity_us: u64,
        trace: TraceId,
        codec: u8,
        payload: Bytes,
        now: Micros,
    ) {
        let peer = if trace.is_none() { None } else { Some(trace.origin()) };
        let decoded = {
            let Some(sub) = self.vars.subscribed.get_mut(&name) else { return };
            // Validity QoS: drop samples past their window (paper §4.1).
            if validity_us > 0 && now.saturating_since(Micros(stamp_us)).as_micros() > validity_us {
                self.stats.stale_samples_dropped += 1;
                sub.stale_drops += 1;
                self.tracer.record(now, TraceKind::VarStaleDrop, trace, peer, seq, Some(&name));
                return;
            }
            if !sub.accept(seq, now) {
                self.stats.old_samples_dropped += 1;
                self.tracer.record(now, TraceKind::VarOldDrop, trace, peer, seq, Some(&name));
                return;
            }
            let value = match (&sub.ty, CodecId(codec)) {
                (Some(ty), id) => match self.codecs.get(id) {
                    Some(c) => c.decode(&payload, ty).ok(),
                    None => None,
                },
                (None, CodecId(1)) => {
                    SelfDescribingCodec::decode_any(&payload).ok().map(|(_, v)| v)
                }
                _ => None,
            };
            value.map(|v| {
                sub.record(Micros(stamp_us), v.clone());
                (v, sub.services.clone())
            })
        };
        let Some((value, services)) = decoded else {
            // The sample passed filtering but its payload does not decode
            // against the announced schema: a publisher/subscriber
            // contract violation, not a transport problem.
            self.vars.type_mismatches += 1;
            self.log_line(now, format!("sample of `{name}` violates announced schema; dropped"));
            return;
        };
        self.vars.arm_deadline(&name);
        for svc in services {
            self.push_task(
                Priority::VARIABLE,
                svc,
                TaskPayload::DeliverVariable {
                    name: name.clone(),
                    value: value.clone(),
                    stamp: Micros(stamp_us),
                    seq,
                    trace,
                },
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_event_data(
        &mut self,
        name: Name,
        seq: u64,
        stamp_us: u64,
        trace: TraceId,
        codec: u8,
        payload: Bytes,
        now: Micros,
    ) {
        let decoded = {
            let Some(sub) = self.events.subscribed.get(&name) else { return };
            let value = if payload.is_empty() {
                None
            } else {
                match (&sub.ty, CodecId(codec)) {
                    (Some(ty), id) => self.codecs.get(id).and_then(|c| c.decode(&payload, ty).ok()),
                    (None, CodecId(1)) => {
                        SelfDescribingCodec::decode_any(&payload).ok().map(|(_, v)| v)
                    }
                    _ => None,
                }
            };
            (value, !sub.subscribers.is_empty())
        };
        let (value, any_subscriber) = decoded;
        if value.is_none() && !payload.is_empty() {
            // A payload arrived but does not decode against the announced
            // schema; the event is still delivered bare so subscribers see
            // the occurrence, and the disagreement is counted.
            self.events.type_mismatches += 1;
            self.log_line(now, format!("event `{name}` payload violates announced schema"));
        }
        if any_subscriber {
            self.push_event_deliveries(&name, value, seq, Micros(stamp_us), trace, now);
        }
    }

    /// Fans one event out to the local subscribers under their declared
    /// [`EventQos`](crate::EventQos) contracts: each subscription's
    /// deliveries ride its own priority lane, and bounded inboxes apply
    /// their drop policy when full.
    pub(super) fn push_event_deliveries(
        &mut self,
        name: &Name,
        value: Option<Value>,
        seq: u64,
        stamp: Micros,
        trace: TraceId,
        now: Micros,
    ) {
        enum Admission {
            Push,
            ReplaceOldest,
            Refuse,
        }
        let decisions: Vec<(u32, Priority, Admission)> = {
            let Some(sub) = self.events.subscribed.get_mut(name) else { return };
            sub.subscribers
                .iter_mut()
                .map(|entry| {
                    let admission = if entry.inbox >= entry.qos.queue_bound {
                        entry.drops += 1;
                        match entry.qos.drop_policy {
                            DropPolicy::DropOldest => Admission::ReplaceOldest,
                            DropPolicy::DropNewest => Admission::Refuse,
                        }
                    } else {
                        entry.inbox += 1;
                        entry.inbox_peak = entry.inbox_peak.max(entry.inbox);
                        Admission::Push
                    };
                    (entry.seq, entry.qos.priority, admission)
                })
                .collect()
        };
        for (svc, priority, admission) in decisions {
            match admission {
                Admission::Refuse => {
                    self.tracer.record(now, TraceKind::EventDrop, trace, None, seq, Some(name));
                    continue;
                }
                Admission::ReplaceOldest => {
                    self.tracer.record(now, TraceKind::EventDrop, trace, None, seq, Some(name));
                    // Retract this subscription's stalest queued delivery to
                    // admit the fresh one; the inbox depth is unchanged
                    // (one out, one in). If nothing was queued despite the
                    // accounting (cannot happen: inboxes are decremented
                    // exactly when deliveries leave the queue), the push
                    // below still keeps the depth within one of the bound.
                    let _ = self.scheduler.remove_matching(&mut |t| {
                        t.service_seq == svc
                            && matches!(&t.payload,
                                TaskPayload::DeliverEvent { name: n, .. } if n == name)
                    });
                }
                Admission::Push => {}
            }
            self.push_task(
                priority,
                svc,
                TaskPayload::DeliverEvent {
                    name: name.clone(),
                    value: value.clone(),
                    seq,
                    stamp,
                    trace,
                },
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_call_request(
        &mut self,
        caller: NodeId,
        request: RequestId,
        function: Name,
        target_seq: u32,
        trace: TraceId,
        codec: u8,
        payload: Bytes,
        now: Micros,
    ) {
        enum Outcome {
            Execute(Vec<Value>),
            Refuse(CallStatus),
        }
        let outcome = {
            match self.rpc.functions.get(&function) {
                None => Outcome::Refuse(CallStatus::NoSuchFunction),
                Some(func) => {
                    let available = self
                        .slots
                        .get((target_seq as usize).wrapping_sub(1))
                        .map(|s| s.state.is_available() || s.state == ServiceState::Starting)
                        .unwrap_or(false);
                    if func.owner_seq != target_seq || !available {
                        Outcome::Refuse(CallStatus::ServiceUnavailable)
                    } else {
                        match self.codecs.get(CodecId(codec)) {
                            Some(c) => match decode_args(&payload, &func.sig, c.as_ref()) {
                                Ok(args) => Outcome::Execute(args),
                                Err(_) => {
                                    self.rpc.type_mismatches += 1;
                                    Outcome::Refuse(CallStatus::AppError)
                                }
                            },
                            None => Outcome::Refuse(CallStatus::AppError),
                        }
                    }
                }
            }
        };
        match outcome {
            Outcome::Execute(args) => {
                self.push_task(
                    Priority::CALL,
                    target_seq,
                    TaskPayload::ExecuteCall { request, caller, function, args, trace },
                );
            }
            Outcome::Refuse(status) => {
                let m = Message::CallReply {
                    request,
                    status,
                    trace: trace.wire(),
                    codec,
                    payload: Bytes::new(),
                };
                self.send_reliable(caller, &m, now);
            }
        }
    }

    pub(super) fn handle_call_reply(
        &mut self,
        request: RequestId,
        status: CallStatus,
        trace: TraceId,
        codec: u8,
        payload: Bytes,
        now: Micros,
    ) {
        let Some(call) = self.rpc.pending.remove(&request) else { return };
        // Prefer the wire echo; calls issued before tracing was enabled
        // fall back to the locally stored id.
        let trace = if trace.is_none() { call.trace } else { trace };
        let result = match status {
            CallStatus::Ok => match self.codecs.get(CodecId(codec)) {
                Some(c) => {
                    let decoded = decode_result(&payload, &call.returns, c.as_ref());
                    if decoded.is_err() {
                        self.rpc.type_mismatches += 1;
                    }
                    decoded
                }
                None => Err(CallError::BadArguments("unknown codec".into())),
            },
            CallStatus::AppError => {
                Err(CallError::App(String::from_utf8_lossy(&payload).into_owned()))
            }
            CallStatus::NoSuchFunction => Err(CallError::NoSuchFunction),
            CallStatus::ServiceUnavailable | CallStatus::Timeout => {
                // Provider-side refusal: try another provider before giving
                // up (degraded-mode continuation, §4.3).
                self.rpc.track(request, call);
                self.failover_call(request, now);
                return;
            }
        };
        if result.is_err() {
            self.stats.call_errors += 1;
        }
        self.tracer.record_call_rtt(now.saturating_since(call.started_at).as_micros());
        self.tracer.record(
            now,
            TraceKind::CallReply,
            trace,
            Some(call.target.node),
            request.0,
            Some(&call.function),
        );
        self.push_task(
            Priority::CALL,
            call.caller_seq,
            TaskPayload::DeliverReply { request, result },
        );
    }

    pub(super) fn handle_file_announce(&mut self, src: NodeId, msg: Message, now: Micros) {
        let Message::FileAnnounce { transfer, ref resource, revision, size, .. } = msg else {
            return;
        };
        if self.files.outgoing.contains_key(resource) {
            // A remote publisher announced a resource this node already
            // publishes: two writers behind one name violates the resource
            // contract, the same class of disagreement the other engines
            // count as type mismatches.
            self.files.type_mismatches += 1;
            self.log_line(
                now,
                format!("remote announce for locally published resource `{resource}` ignored"),
            );
            return;
        }
        self.files.transfer_index.insert(transfer, resource.clone());
        self.files.seen_announces.insert(resource.clone(), (src, msg.clone()));

        enum Wire {
            Fresh,
            Resubscribe,
            Nothing,
        }
        let (wire, services) = {
            let Some(interest) = self.files.interests.get_mut(resource) else { return };
            if interest.services.is_empty() || interest.completed_revision == Some(revision) {
                return;
            }
            match &mut interest.receiver {
                Some(rx) => match rx.on_announce(&msg) {
                    Ok(AnnounceOutcome::Restarted) => {
                        interest.publisher = Some(src);
                        (Wire::Resubscribe, interest.services.clone())
                    }
                    _ => (Wire::Nothing, Vec::new()),
                },
                None => {
                    match FileReceiver::from_announce(
                        &msg,
                        self.config.node,
                        RevisionPolicy::Restart,
                    ) {
                        Ok((rx, _sub)) => {
                            interest.receiver = Some(rx);
                            interest.publisher = Some(src);
                            (Wire::Fresh, interest.services.clone())
                        }
                        Err(_) => (Wire::Nothing, Vec::new()),
                    }
                }
            }
        };
        match wire {
            Wire::Fresh => {
                self.transport.join(file_group(resource).0);
                let sub = Message::FileSubscribe { transfer, subscriber: self.config.node };
                self.send_reliable(src, &sub, now);
            }
            Wire::Resubscribe => {
                let sub = Message::FileSubscribe { transfer, subscriber: self.config.node };
                self.send_reliable(src, &sub, now);
            }
            Wire::Nothing => {}
        }
        let resource = resource.clone();
        for svc in services {
            self.push_task(
                Priority::FILE,
                svc,
                TaskPayload::File(FileEvent::Announced {
                    resource: resource.clone(),
                    revision,
                    size,
                }),
            );
        }
    }

    pub(super) fn handle_file_chunk(
        &mut self,
        transfer: TransferId,
        revision: u32,
        index: u32,
        payload: Bytes,
        now: Micros,
    ) {
        let completion = {
            let Some(name) = self.files.resource_of(transfer).cloned() else { return };
            let Some(interest) = self.files.interests.get_mut(&name) else { return };
            let Some(mut rx) = interest.receiver.take() else { return };
            if rx.on_chunk(revision, index, &payload) {
                let data = rx.into_data();
                interest.completed_revision = Some(revision);
                Some((name, data, interest.services.clone(), interest.publisher))
            } else {
                interest.receiver = Some(rx);
                None
            }
        };
        let Some((name, data, services, publisher)) = completion else { return };
        self.stats.files_received += 1;
        for svc in services {
            self.push_task(
                Priority::FILE,
                svc,
                TaskPayload::File(FileEvent::Received {
                    resource: name.clone(),
                    revision,
                    data: data.clone(),
                }),
            );
        }
        if let Some(publisher) = publisher {
            let ack = Message::FileAck { transfer, revision, subscriber: self.config.node };
            self.send_reliable(publisher, &ack, now);
        }
    }

    pub(super) fn poll_links(&mut self, now: Micros) {
        // Only links with in-flight or unflushed state are polled: a
        // quiescent link's poll is a no-op, so skipping it is
        // output-equivalent and keeps the sweep O(active) instead of
        // O(peers) at fleet scale. `active_links` is a BTreeSet, so the
        // per-peer send order stays sorted — it decides how the simulated
        // network's RNG stream maps onto datagrams (same seed ⇒ same
        // trace).
        let mut polled = std::mem::take(&mut self.link_scratch);
        polled.clear();
        polled.extend(self.active_links.iter().copied());
        let polled_any = !polled.is_empty();
        for peer in polled.drain(..) {
            let Some(link) = self.links.get_mut(&peer) else {
                self.active_links.remove(&peer);
                continue;
            };
            let (out, failed) = link.poll(now);
            let retransmits = link.take_retransmits();
            if !link.needs_poll() {
                self.active_links.remove(&peer);
            }
            for seq in retransmits {
                self.tracer.record(
                    now,
                    TraceKind::RelRetransmit,
                    TraceId::NONE,
                    Some(peer),
                    seq,
                    None,
                );
            }
            self.send_link_messages(peer, out);
            if !failed.is_empty() {
                self.log_line(
                    now,
                    format!("reliable delivery to {peer} abandoned for {} messages", failed.len()),
                );
            }
        }
        self.link_scratch = polled;
        // Links die with their peers, so the max is re-derived rather than
        // tracked incrementally — but only on a tick in which some link
        // could have changed its rate: one was polled above (a reliable
        // send makes its link active, hence polled), or a frame or a peer
        // death touched the table since the last walk. Otherwise the gauge
        // already holds what the walk would find. This walk sends nothing.
        if !std::mem::take(&mut self.links_changed) && !polled_any {
            return;
        }
        let mut rate_max = 0u8;
        // marea-lint: allow(D1): max over link gauges is order-independent; nothing sends here
        for link in self.links.values() {
            let tag = link.fec_rate().wire_tag();
            if tag > rate_max {
                rate_max = tag;
            }
        }
        self.stats.fec.negotiated_rate_max = rate_max;
    }

    pub(super) fn pump_files(&mut self, now: Micros) {
        // Stable send order (determinism); scratch buffer avoids a fresh
        // Vec allocation every tick.
        let mut resources = std::mem::take(&mut self.sweep_scratch);
        sorted_keys_into(&self.files.outgoing, &mut resources);
        for resource in resources.drain(..) {
            let group = file_group(&resource);
            let mut to_control: Vec<Message> = Vec::new();
            let mut to_group: Vec<Message> = Vec::new();
            {
                let Some(out) = self.files.outgoing.get_mut(&resource) else { continue };
                if out.sender.is_complete() {
                    continue;
                }
                if out.sender.has_pending_chunks() {
                    to_group = out.sender.next_chunks(self.config.file_burst);
                } else {
                    let due = out
                        .last_query_at
                        .map(|t| now.saturating_since(t) >= self.config.file_query_interval)
                        .unwrap_or(true);
                    if due {
                        out.last_query_at = Some(now);
                        // Re-announce with each query round so late joiners
                        // can subscribe mid-transfer (§4.4 phase overlap).
                        to_control.push(out.sender.announce());
                        to_group.push(out.sender.query());
                    }
                }
            }
            for m in to_control {
                self.send_message(TransportDestination::Group(GroupId::CONTROL.0), &m);
            }
            for m in to_group {
                self.send_message(TransportDestination::Group(group.0), &m);
            }
            self.notify_distribution_complete(&resource);
        }
        self.sweep_scratch = resources;
    }

    pub(super) fn notify_distribution_complete(&mut self, resource: &Name) {
        let pending = {
            let Some(out) = self.files.outgoing.get_mut(resource) else { return };
            if out.sender.is_complete() && !out.complete_notified {
                out.complete_notified = true;
                Some((out.owner_seq, out.sender.revision(), out.sender.stats().completed))
            } else {
                None
            }
        };
        if let Some((owner, revision, subscribers)) = pending {
            self.push_task(
                Priority::FILE,
                owner,
                TaskPayload::File(FileEvent::DistributionComplete {
                    resource: resource.clone(),
                    revision,
                    subscribers,
                }),
            );
        }
    }
}
