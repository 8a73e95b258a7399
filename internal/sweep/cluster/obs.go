package cluster

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// Metric namespace for the proxy tier.
const proxyNS = "sweep_proxy"

// initObs builds the proxy's metric registry and wires the tracer. As
// in the serve layer, /statsz and /metricsz read the same objects.
func (p *Proxy) initObs(tracer *obs.Tracer) {
	reg := obs.NewRegistry()
	p.reg = reg
	p.tracer = tracer

	epHist := func(name string) *obs.Histogram {
		return reg.Histogram(
			proxyNS+"_http_request_duration_us",
			"Request wall time per endpoint, microseconds.",
			nil, obs.Label{Key: "endpoint", Value: name})
	}
	p.scenarioH = epHist("scenario")
	p.sweepH = epHist("sweep")
	p.deltasH = epHist("deltas")

	p.routed = reg.Counter(proxyNS+"_scenario_routed_total", "Scenario requests answered by a ring replica.")
	p.fellThrough = reg.Counter(proxyNS+"_scenario_fallthrough_total", "Scenario requests that fell through to the writer.")
	p.notModified = reg.Counter(proxyNS+"_not_modified_total", "Conditional requests answered 304.")
	p.cacheHits = reg.Counter(proxyNS+"_cache_hits_total", "Scenario requests served from the proxy response cache.")
	p.cacheMisses = reg.Counter(proxyNS+"_cache_misses_total", "Scenario requests the response cache could not answer.")
	p.tlvSweeps = reg.Counter(proxyNS+"_tlv_streams_total", "Sweep responses that negotiated the binary TLV stream.")

	reg.GaugeFunc(proxyNS+"_ring_members", "Replicas in the consistent-hash ring.", func() float64 {
		return float64(len(p.replicas))
	})
	reg.GaugeFunc(proxyNS+"_ring_members_healthy", "Ring replicas currently healthy.", func() float64 {
		return float64(p.healthyReplicas())
	})
	reg.GaugeFunc(proxyNS+"_cache_entries", "Entries resident in the proxy response cache.", func() float64 {
		if p.cache == nil {
			return 0
		}
		return float64(p.cache.len())
	})
	reg.GaugeFunc(proxyNS+"_uptime_seconds", "Seconds since process start.", func() float64 {
		return time.Since(p.start).Seconds() //sweepvet:allow(timenow) uptime gauge, metrics only
	})
	obs.RegisterRuntimeGauges(reg, proxyNS)

	// Per-member health detail: the member set is fixed at construction,
	// so each member registers its own labelled gauges once.
	memberGauges := func(m *member) {
		label := obs.Label{Key: "member", Value: m.url}
		reg.GaugeFunc(proxyNS+"_member_healthy", "1 when the member is routed to, 0 when ejected.", func() float64 {
			if m.healthy.Load() {
				return 1
			}
			return 0
		}, label)
		reg.GaugeFunc(proxyNS+"_member_consecutive_failures", "Consecutive failed health probes.", func() float64 {
			return float64(m.consecFails.Load())
		}, label)
		reg.GaugeFunc(proxyNS+"_member_backing_off", "1 while the member sits out a Retry-After backoff.", func() float64 {
			if m.backingOff(time.Now()) { //sweepvet:allow(timenow) backoff gauge, metrics only
				return 1
			}
			return 0
		}, label)
	}
	memberGauges(p.writer)
	for _, m := range p.replicas {
		memberGauges(m)
	}
}

func (p *Proxy) healthyReplicas() int {
	n := 0
	for _, m := range p.replicas {
		if m.healthy.Load() {
			n++
		}
	}
	return n
}

// OpsHandler returns the handler for the out-of-band ops listener
// (-ops-addr): pprof, /metricsz, /statsz, /healthz.
func (p *Proxy) OpsHandler() http.Handler {
	return obs.NewOpsMux(p.reg, http.HandlerFunc(p.handleStatsz))
}

// propagate stamps the span riding the request context (put there by
// httpapi.Instrument) onto an outgoing backend request, so one trace ID
// spans proxy → replica → writer fall-through.
func propagate(req *http.Request) {
	if sp := obs.SpanFromContext(req.Context()); sp != nil {
		req.Header.Set(obs.TraceparentHeader, sp.Traceparent())
	}
}
