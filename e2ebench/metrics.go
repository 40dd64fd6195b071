package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"slim/internal/obs"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names (TestBenchmarkJSONMatchesLedger).
type metricDef struct {
	Name, Unit, Better string
	// Per-layer rows only: the layer, how it is measured, the end-to-end
	// metrics it should move and the workloads it should move them on.
	Layer, MeasuredBy, Moves, On string
}

// endToEnd are the bounded metrics a user of the system sees. Three more
// end-to-end numbers are printed on every run but not bounded, and are
// carried in the traced ledger instead: failed_frac and stale_px, which
// are 0 on a healthy run (failed inputs are also the result's failed
// count), and itp_p99_ms, whose run-to-run spread on a shared virtual
// host follows the host's timer and scheduling jitter rather than the
// system (open-loop inputs are timed from their due time).
var endToEnd = []metricDef{
	{Name: "itp_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "inputs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_us_per_input", Unit: "us", Better: "lower"},
	{Name: "wire_bytes_per_input", Unit: "B", Better: "lower"},
	{Name: "allocs_per_input", Unit: "count", Better: "lower"},
	{Name: "heap_mb", Unit: "MB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// ledger is the per-layer table the traced run reports, with the
// end-to-end metric and workload each row should move.
var ledger = []metricDef{
	{"itp_p99_ms", "ms", "lower", "end to end (not bounded)", "99th percentile of input-to-paint, median over 1000-input slices", "itp_p99_ms", "all"},
	{"loadgen.lag_p99_ms", "ms", "lower", "benchmark generator", "sent - due", "validity of itp_*", "type, scroll, hotdesk"},
	{"udp.down_datagrams_per_input", "count", "lower", "udp.go", "count at the console sockets", "wire_bytes_per_input, itp_p99_ms; cpu_us_per_input", "scroll, hotdesk; type"},
	{"udp.up_datagrams_per_input", "count", "lower", "udp.go", "keys, STATUS, NACK and grants sent", "cpu_us_per_input", "type"},
	{"udp.down_bytes_per_datagram", "B", "higher", "udp.go", "bytes / datagrams at the console sockets", "cpu_us_per_input", "scroll"},
	{"fabric.deliver_us", "us", "lower", "fabric.go + console", "Transport shim around Fabric.Send", "itp_p50_ms", "desks"},
	{"server.handle_self_us", "us", "lower", "internal/server", "Server.Handle time minus app and Send", "cpu_us_per_input, inputs_per_s", "desks"},
	{"server.recovery_repaints_per_min", "1/min", "lower", "internal/server", "recovery events via WithLogger", "wire_bytes_per_input, itp_p99_ms, stale_px", "scroll, hotdesk (0 on type)"},
	{"app.us_per_input", "us", "lower", "app (terminal, drives)", "wrapped Application", "itp_p50_ms", "scroll"},
	{"core.encode_us_per_input", "us", "lower", "internal/core", "op stream replayed through a standalone core.Encoder", "itp_p50_ms, cpu_us_per_input", "scroll, desks"},
	{"core.repaint_ms", "ms", "lower", "internal/core", "standalone Encoder.RepaintAll of the session screen (hotdesk: gen-2 and gen-1 alternately)", "itp_p50_ms", "hotdesk"},
	{"core.cmds_per_input", "count", "lower", "internal/core", "slim_encoder_commands_total", "wire_bytes_per_input", "all"},
	{"core.cache_hit_ratio", "frac", "higher", "internal/core", "codec2 hits / probes", "wire_bytes_per_input", "scroll, hotdesk"},
	{"core.cache_resets_per_min", "1/min", "lower", "internal/core", "Encoder.Codec2Stats().Resets", "wire_bytes_per_input, itp_p99_ms", "scroll, hotdesk"},
	{"flow.superseded_frac", "frac", "lower", "internal/flow", "superseded / submitted", "wire_bytes_per_input, itp_p99_ms", "scroll, hotdesk"},
	{"flow.evicted", "count", "lower", "internal/flow", "slim_flow_evicted_total", "stale_px, failed_frac", "hotdesk"},
	{"flow.retrans_bytes_frac", "frac", "lower", "internal/flow", "retransmit / released bytes", "wire_bytes_per_input", "scroll, hotdesk"},
	{"flow.pacing_delay_p50_ms", "ms", "lower", "internal/flow", "slim_flow_pacing_delay_seconds", "itp_p50_ms", "scroll, hotdesk"},
	{"flow.pacing_delay_p99_ms", "ms", "lower", "internal/flow", "slim_flow_pacing_delay_seconds", "itp_p99_ms", "scroll, hotdesk"},
	{"console.decode_us_per_input", "us", "lower", "internal/console", "benchmark-timed Console.HandleDatagram", "itp_p50_ms; cpu_us_per_input", "scroll, hotdesk; type"},
	{"console.nacks_per_input", "count", "lower", "internal/console", "slim_console_nacks_total", "wire_bytes_per_input, itp_p99_ms", "scroll, hotdesk"},
	{"console.cache_miss_ratio", "frac", "lower", "internal/console", "slim_console_cache_{hits,misses}_total", "console.nacks_per_input, wire_bytes_per_input", "scroll, hotdesk"},
	{"obs.overhead_us_per_input", "us", "lower", "internal/obs (flight, slo)", "desks CPU with flight recorder and SLO tracker on minus off", "cpu_us_per_input, inputs_per_s", "desks"},
	{"gc.cpu_frac", "frac", "lower", "Go runtime", "runtime/metrics GC CPU classes", "cpu_us_per_input, itp_p99_ms", "desks, scroll"},
	{"trace.overhead_frac", "frac", "lower", "benchmark", "traced minus untraced cpu_us_per_input", "validity of every row above", "all"},
	{"failed_frac", "frac", "lower", "end to end (console pixels)", "inputs not painted within 1 s / attempted", "failed_frac", "all"},
	{"stale_px", "px", "lower", "end to end (console pixels)", "console vs session pixels after the drain", "stale_px", "all"},
}

// procSample is a reading of the process-wide costs a window is charged.
type procSample struct {
	wall   time.Time
	cpu    time.Duration // user + system
	allocs uint64
	gcCPU  float64
	allCPU float64
}

func readProc() procSample {
	s := procSample{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	rm := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(rm)
	s.allocs = rm[0].Value.Uint64()
	s.gcCPU = rm[1].Value.Float64()
	s.allCPU = rm[2].Value.Float64()
	return s
}

// procDelta is what the process spent between two samples.
type procDelta struct {
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
	gcFrac float64
}

func (a procSample) to(b procSample) procDelta {
	d := procDelta{wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, allocs: b.allocs - a.allocs}
	if all := b.allCPU - a.allCPU; all > 0 {
		d.gcFrac = (b.gcCPU - a.gcCPU) / all
	}
	return d
}

// liveHeapMB collects garbage and reports the heap objects still live.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// quantile returns the q-quantile of xs (nearest rank).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// failedMs is the latency a failed input enters the sample with: an
// input that never painted missed every latency limit up to the timeout.
var failedMs = float64(paintTimeout) / 1e6

// p99Slice is how many consecutive inputs make one slice for itp_p99_ms:
// enough that ten samples lie beyond each slice's 99th percentile.
const p99Slice = 1000

// p99 reports the 99th percentile of input-to-paint times given in due
// order, made robust to a single scheduling hiccup of the shared host: the
// samples are cut into slices of p99Slice inputs and the median of the
// slices' 99th percentiles is reported. With fewer samples than two
// slices it is the plain 99th percentile.
func p99(itps []float64) float64 {
	if len(itps) < 2*p99Slice {
		return quantile(itps, 0.99)
	}
	var per []float64
	for i := 0; i+p99Slice <= len(itps); i += p99Slice {
		per = append(per, quantile(itps[i:i+p99Slice], 0.99))
	}
	return median(per)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// perInput divides, reporting 0 when nothing completed.
func perInput(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterSum sums every counter in s named name or name{labels}.
func counterSum(s obs.Snapshot, name string) int64 {
	var n int64
	for k, v := range s.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			n += v
		}
	}
	return n
}

// layerDelta is the change in a run's registry over a window.
type layerDelta struct{ a, b obs.Snapshot }

func (d layerDelta) counter(name string) float64 {
	return float64(counterSum(d.b, name) - counterSum(d.a, name))
}

func (d layerDelta) hist(name string) obs.HistogramSnapshot {
	return d.b.Histograms[name].Delta(d.a.Histograms[name])
}

// fromRegistry fills the ledger rows the layers' own counters provide.
func (d layerDelta) fromRegistry(m map[string]float64, inputs int) {
	m["core.cmds_per_input"] = perInput(d.counter("slim_encoder_commands_total"), inputs)
	hits, misses := d.counter("slim_codec2_cache_hits_total"), d.counter("slim_codec2_cache_misses_total")
	m["core.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["flow.superseded_frac"] = ratio(d.counter("slim_flow_superseded_total"), d.counter("slim_flow_submitted_total"))
	m["flow.evicted"] = d.counter("slim_flow_evicted_total")
	m["flow.retrans_bytes_frac"] = ratio(d.counter("slim_flow_retransmit_bytes_total"), d.counter("slim_flow_released_bytes_total"))
	pd := d.hist("slim_flow_pacing_delay_seconds")
	m["flow.pacing_delay_p50_ms"] = pd.P50 * 1e3
	m["flow.pacing_delay_p99_ms"] = pd.P99 * 1e3
	chits, cmisses := d.counter("slim_console_cache_hits_total"), d.counter("slim_console_cache_misses_total")
	m["console.cache_miss_ratio"] = ratio(cmisses, chits+cmisses)
	m["console.nacks_per_input"] = perInput(d.counter("slim_console_nacks_total"), inputs)
}
