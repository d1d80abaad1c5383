// Command perfbench is the repository's benchmark. It builds the
// deployed railway/Simplex System through the public lifecycle, drives
// one workload, checks the workload's outputs, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The untraced run (-trace 0) gives the end-to-end metrics. The traced
// run (-trace 1) wraps the System's exported interface seams with timing
// decorators and gives the per-layer metrics. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Seeds. DefaultSeed is the seed to tune against; HeldOutSeed is kept
// back for confirming a claim on inputs it was not tuned on.
const (
	DefaultSeed = 1
	HeldOutSeed = 1000003
)

var workloads = []string{"frame-nominal", "frame-faulted", "fleet-uplink"}

// setups is how many times a run sets its workload up; setup_s is the
// median, so one slow Build does not move it.
const setups = 3

type spec struct{ name, unit string }

// endToEnd metrics, printed by the untraced run on every workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"frames_per_s", "1/s"},
	{"frame_p50_us", "us"},
	{"frame_p90_us", "us"},
	{"round_p50_ms", "ms"},
	{"round_p90_ms", "ms"},
	{"allocs_per_frame", "count"},
	{"bytes_per_frame", "B"},
	{"heap_mb", "MB"},
}

// perLayer metrics, printed by the traced run on every workload. A layer
// the workload does not reach reads 0.
var perLayer = []spec{
	{"core.build_s", "s"},
	{"data.generate_s", "s"},
	{"core.operate_us", "us"},
	{"core.operate.self_us", "us"},
	{"core.log_records_per_frame", "count"},
	{"safety.decide.self_us", "us"},
	{"safety.decide.calls_per_frame", "count"},
	{"nn.primary_us", "us"},
	{"nn.primary.calls_per_frame", "count"},
	{"supervisor.score_us", "us"},
	{"supervisor.score.calls_per_frame", "count"},
	{"supervisor.drift_alarms_per_frame", "count"},
	{"fdir.probe_us", "us"},
	{"fdir.probe.calls_per_frame", "count"},
	{"fdir.fallback_us", "us"},
	{"fdir.fallback.calls_per_frame", "count"},
	{"fdir.anomalies_per_frame", "count"},
	{"fdir.quarantines", "count"},
	{"fdir.restores", "count"},
	{"qnn.infer_us", "us"},
	{"fleetnet.submit_us_per_frame", "us"},
	{"fleetnet.unit_drain_ms", "ms"},
	{"fleetnet.region_drain_ms", "ms"},
	{"fleetnet.applied_frames", "count"},
	{"fleetnet.relayed_frames", "count"},
	{"fleetnet.resumes", "count"},
	{"fleetnet.relay_drops", "count"},
	{"fleetnet.lost", "count"},
	{"fleetnet.dups", "count"},
	{"fleet.ingest_ns_per_frame", "ns"},
	{"trace.overhead_us", "us"},
}

// metrics collects named values for one run.
type metrics map[string]float64

type setupTimes struct{ build, generate, total float64 }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", workloads[0], "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", DefaultSeed, fmt.Sprintf("workload seed; %d is held out for confirming claims", HeldOutSeed))
	seconds := fs.Float64("seconds", 30, "how long the run measures")
	traceRun := fs.Int("trace", 0, "1 for the traced run, which prints the per-layer metrics")
	spansOut := fs.String("spans", "", "where the traced run writes its spans (default .bench_build/spans-<workload>.csv)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceRun != 0 && *traceRun != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *traceRun)
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	traced := *traceRun == 1

	var t *tracer
	if traced {
		t = newTracer(1 << 18)
	}
	m := metrics{}
	var res result
	var bad []string
	var times []setupTimes
	switch *workload {
	case "frame-nominal", "frame-faulted":
		faulted := *workload == "frame-faulted"
		var st *frameState
		for i := 0; i < setups; i++ {
			s, tm, err := setupFrames(*seed, faulted)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			st, times = s, append(times, tm)
		}
		r, err := runFrames(st, *seconds, t)
		if err != nil {
			return err
		}
		res.Attempted, res.Failed = r.frames, r.failed
		bad = frameChecks(st, r)
		if traced {
			err = frameLayers(r, t, m)
		} else {
			frameMetrics(r, m)
		}
		if err != nil {
			return err
		}
	case "fleet-uplink":
		var st *uplinkState
		for i := 0; i < setups; i++ {
			s, tm, err := setupUplink(*seed)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			st, times = s, append(times, tm)
		}
		r, err := runUplink(st, *seconds, t)
		if err != nil {
			return err
		}
		res.Attempted, res.Failed = r.submitted, r.failed
		bad = uplinkChecks(r)
		if traced {
			err = uplinkLayers(r, t, m)
		} else {
			uplinkMetrics(r, m)
		}
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloads, ", "))
	}

	var build, generate, total []float64
	for _, tm := range times {
		build, generate, total = append(build, tm.build), append(generate, tm.generate), append(total, tm.total)
	}
	want := endToEnd
	if traced {
		want = perLayer
		m["core.build_s"] = median(build)
		m["data.generate_s"] = median(generate)
		path := *spansOut
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+*workload+".csv")
		}
		if err := writeSpans(path, t); err != nil {
			return err
		}
	} else {
		m["setup_s"] = median(total)
	}

	res.Metrics = map[string]metric{}
	for _, s := range want {
		v, ok := m[s.name]
		if !ok && !traced {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", s.name, v)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	for _, b := range bad {
		fmt.Fprintln(stderr, "perfbench: check failed:", b)
	}
	res.Correct = len(bad) == 0 && res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// writeSpans writes every recorded span with its self time, one CSV row
// per span, in the order the spans began.
func writeSpans(path string, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(t.spans)
	fmt.Fprintln(w, "span,id,layer,parent,start_ns,end_ns,self_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", i, s.id, layerNames[s.layer], s.parent, s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
