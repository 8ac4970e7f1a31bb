package main

import (
	"fmt"
	"sort"
)

// Per-layer numbers from the traced phase's spans. A layer's self time is
// its span minus the part of it its child spans cover; summed along one
// request's blocking path, the self times should account for the request's
// end-to-end latency, and trace.*_accounted reports how closely they do.
// Every term of that sum is measured directly: the transport legs are the
// client's own side of each round trip (see serverWait), not what the
// server's spans leave over, so time no span covers (the network, request
// parsing, response writing, a missing span) lowers the ratio below 1.

// spanIndex groups spans by layer and request ID, each list sorted by
// start time.
type spanIndex map[string][]span

func indexSpans(ss []span) spanIndex {
	ix := spanIndex{}
	for _, s := range ss {
		k := s.Layer + "\x00" + s.ID
		ix[k] = append(ix[k], s)
	}
	for _, l := range ix {
		sort.Slice(l, func(i, j int) bool { return l[i].Start < l[j].Start })
	}
	return ix
}

func (ix spanIndex) get(layer, id string) []span { return ix[layer+"\x00"+id] }

// within returns the spans of layer and id that lie inside parent (and,
// when peer is not empty, were served by or sent to peer).
func (ix spanIndex) within(layer, id, peer string, parent span) []span {
	l := ix.get(layer, id)
	i := sort.Search(len(l), func(i int) bool { return l[i].Start >= parent.Start })
	var out []span
	for ; i < len(l) && l[i].Start <= parent.End; i++ {
		if l[i].End <= parent.End && (peer == "" || l[i].Peer == peer) {
			out = append(out, l[i])
		}
	}
	return out
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func ivs(ss []span) []interval {
	out := make([]interval, len(ss))
	for i, s := range ss {
		out[i] = s.iv()
	}
	return out
}

// layerStat reports a layer metric as the median of its per-request self
// times (µs) and keeps their count, mean and tail for the summary.
func (r *run) layerStat(metric string, self []float64) {
	d := summarize(self)
	r.layers[metric] = layerSummary{Count: d.N, SelfMeanUs: mean(self), Self: d}
	r.layer[metric] = d.Median
}

// pushLayers joins each traced push's spans by (worker, sequence): the
// generator's export and POST, the fan-in handler, its round trip to each
// replica, the replica handler and the aggregator's Apply. The root span
// runs from the start of ExportDelta to the ack: its duration is the
// push's freshness sample.
func pushLayers(r *run, ss []span) error {
	ix := indexSpans(ss)
	var export, client, fanin, rtt, transport, replica, apply, accounted []float64
	for _, root := range ss {
		if root.Layer != "push" {
			continue
		}
		id := root.ID
		ex, cl, clw, fan := ix.get("engine.export", id), ix.get("client.push", id), ix.get("client.push.wait", id), ix.get("fanin", id)
		rtts := ix.get("replica_rtt", id)
		if len(ex) != 1 || len(cl) != 1 || len(clw) != 1 || len(fan) != 1 || len(rtts) != tierReplicas {
			continue
		}
		// Along the blocking path: the push waits for the round trip that
		// ends last.
		var path, last int64
		complete := true
		for _, rt := range rtts {
			h, a := pick(ix.get("aggsrv", id), rt.Peer), pick(ix.get("aggregator.apply", id), rt.Peer)
			rw := pick(ix.get("replica_rtt.wait", id), rt.Peer)
			if h == nil || a == nil || rw == nil {
				complete = false
				break
			}
			tr := selfTime(rt.iv(), []interval{rw.iv(), h.iv()})
			self := selfTime(h.iv(), []interval{a.iv()})
			if rt.End > last {
				last, path = rt.End, tr+self+a.iv().dur()
			}
			rtt = append(rtt, us(rt.iv().dur()))
			transport = append(transport, us(tr))
			replica = append(replica, us(self))
			apply = append(apply, us(a.iv().dur()))
		}
		if !complete {
			continue
		}
		clientT := selfTime(cl[0].iv(), []interval{clw[0].iv(), fan[0].iv()})
		fanSelf := selfTime(fan[0].iv(), ivs(rtts))
		export = append(export, us(ex[0].iv().dur()))
		client = append(client, us(clientT))
		fanin = append(fanin, us(fanSelf))
		sum := ex[0].iv().dur() + clientT + fanSelf + path
		accounted = append(accounted, float64(sum)/float64(root.iv().dur()))
	}
	if len(accounted) == 0 {
		return fmt.Errorf("no traced push had a complete set of spans")
	}
	r.layerStat("engine.export_us", export)
	r.layerStat("transport.client_us", client)
	r.layerStat("fanin.push_self_us", fanin)
	r.layerStat("transport.us", transport)
	r.layerStat("aggsrv.push_self_us", replica)
	r.layerStat("aggregator.apply_us", apply)
	r.timing("fanin.replica_rtt_us (push)", rtt)
	var err error
	if r.layer["fanin.replica_rtt_us_p99"], err = percentile(rtt, 0.99); err != nil {
		return fmt.Errorf("fanin.replica_rtt_us_p99: %w", err)
	}
	r.layer["trace.push_accounted"] = median(accounted)
	r.timing("trace.push_accounted", accounted)
	return nil
}

// pick returns the span served by peer.
func pick(ss []span, peer string) *span {
	for i := range ss {
		if ss[i].Peer == peer {
			return &ss[i]
		}
	}
	return nil
}

// queryLayers joins each traced query's spans by key and time
// containment: the generator's GET, the fan-in handler inside it, the
// fan-in's round trips, the replica handler inside each round trip and the
// aggregator's Query inside the handler.
func queryLayers(r *run, ss []span) error {
	ix := indexSpans(ss)
	var client, fanin, requests, transport, report, query, accounted []float64
	for _, root := range ss {
		if root.Layer != "client.query" {
			continue
		}
		clw := ix.within("client.query.wait", root.ID, "", root)
		fans := ix.within("fanin", root.ID, "", root)
		if len(clw) != 1 || len(fans) != 1 {
			continue // missing, or two concurrent queries for the key
		}
		fan := fans[0]
		rtts := ix.within("replica_rtt", root.ID, "", fan)
		if len(rtts) == 0 {
			continue
		}
		// The answer the client got is the first round trip to finish.
		first := rtts[0]
		for _, rt := range rtts {
			if rt.End < first.End {
				first = rt
			}
		}
		rw := ix.within("replica_rtt.wait", root.ID, first.Peer, first)
		hs := ix.within("aggsrv", root.ID, first.Peer, first)
		if len(rw) != 1 || len(hs) != 1 {
			continue
		}
		qs := ix.within("aggregator.query", root.ID, first.Peer, hs[0])
		if len(qs) != 1 {
			continue
		}
		clientT := selfTime(root.iv(), []interval{clw[0].iv(), fan.iv()})
		fanSelf := selfTime(fan.iv(), ivs(rtts))
		tr := selfTime(first.iv(), []interval{rw[0].iv(), hs[0].iv()})
		rep := selfTime(hs[0].iv(), []interval{qs[0].iv()})
		q := qs[0].iv().dur()
		client = append(client, us(clientT))
		fanin = append(fanin, us(fanSelf))
		requests = append(requests, float64(len(rtts)))
		transport = append(transport, us(tr))
		report = append(report, us(rep))
		query = append(query, us(q))
		accounted = append(accounted, float64(clientT+fanSelf+tr+rep+q)/float64(root.iv().dur()))
	}
	if len(accounted) == 0 {
		return fmt.Errorf("no traced query had a complete set of spans")
	}
	r.layerStat("transport.query_client_us", client)
	r.layerStat("fanin.query_self_us", fanin)
	r.layer["fanin.requests_per_query"] = mean(requests)
	r.layerStat("transport.query_us", transport)
	r.layerStat("aggsrv.report_us", report)
	r.layerStat("aggregator.query_us", query)
	r.layer["trace.query_accounted"] = median(accounted)
	r.timing("trace.query_accounted", accounted)
	r.note("query spans: %d of the traced queries joined completely", len(accounted))
	return nil
}
