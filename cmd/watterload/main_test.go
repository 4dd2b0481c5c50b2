package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"watter/internal/load"
)

// defaultRun is the flag defaults: CDC, 60 workers, a 300 s horizon, Δt 10,
// rate 1, buffers 256/64 (64/8 for the starved consumer), seed 1, and the
// rate search over [0.125, 2] at depth 4.
var defaultRun = options{
	quiet: true, city: "cdc", workers: 60, horizon: 300, tick: 10, seed: 1, rate: 1,
	buffer: 256, drain: 64, bpBuffer: 64, bpDrain: 8,
	search: true, searchLo: 0.125, searchHi: 2, searchN: 4, quantile: 0.99, slack: 1, minSvc: 0.5,
}

// pinnedRuns are defaultRun's four scenarios, in run's order.
var pinnedRuns = []load.Result{
	{Process: load.Poisson, Rate: 1, Horizon: 300, Scheduled: 290, Submitted: 290, Served: 125, Rejected: 165, Ticks: 220,
		SustainedRate: 0.9666666666666667, P50: 17.866878691987583, P99: 623.4870199105466, P999: 634.4824641816635,
		Mean: 50.755494973147435, SlipP99: 0.001, FracWithinTick: 1, ServiceRate: 0.43103448275862066,
		BackpressureOnset: -1, PeakQueueDepth: 25, StreamHash: 0x392b6bbe2df2396b, JournalHash: 0xb33ae38f3babdc49},
	{Process: load.Surge, Rate: 0.5, Horizon: 300, Scheduled: 256, Submitted: 256, Served: 120, Rejected: 136, Ticks: 224,
		SustainedRate: 0.8533333333333334, P50: 10.623709631701072, P99: 339.9587082144343, P999: 377.02495581945846,
		Mean: 34.59172163608798, SlipP99: 0, FracWithinTick: 1, ServiceRate: 0.46875,
		BackpressureOnset: -1, PeakQueueDepth: 35, StreamHash: 0x87e5eca59271eba3, JournalHash: 0x92abdd13d626ff82},
	{Process: load.Pareto, Rate: 1, Horizon: 300, Scheduled: 218, Submitted: 218, Served: 120, Rejected: 98, Ticks: 223,
		SustainedRate: 0.7266666666666667, P50: 10.623709631701072, P99: 477.3108336828189, P999: 477.3108336828189,
		Mean: 48.89486724636325, SlipP99: 0, FracWithinTick: 1, ServiceRate: 0.5504587155963303,
		BackpressureOnset: -1, PeakQueueDepth: 28, StreamHash: 0xcc8ada9c768c240f, JournalHash: 0xb271a1ae4662f9b5},
	// The poisson arrivals again, against a consumer draining 8 events a tick
	// from a 64-deep bus.
	{Process: load.Poisson, Rate: 1, Horizon: 300, Scheduled: 290, Submitted: 290, Served: 125, Rejected: 165, Ticks: 220,
		SustainedRate: 0.9666666666666667, P50: 17.866878691987583, P99: 623.4870199105466, P999: 634.4824641816635,
		Mean: 50.755494973147435, SlipP99: 0.001, FracWithinTick: 1, ServiceRate: 0.43103448275862066,
		BackpressureOnset: 100, PeakQueueDepth: 176, StreamHash: 0x392b6bbe2df2396b, JournalHash: 0xb33ae38f3babdc49},
}

// pinnedSearch is defaultRun's rate search: the bracket ends, then four
// bisections.
var pinnedSearch = load.SearchResult{MaxRate: 0.828125, Budget: 10, Quantile: 0.99, Probes: []load.Probe{
	{Rate: 0.125, Slip: 4.289675625550899, ServiceRate: 0.8125, Sustainable: true},
	{Rate: 2, Slip: 0.001, ServiceRate: 0.22240802675585283, Sustainable: false},
	{Rate: 1.0625, Slip: 0.001, ServiceRate: 0.39805825242718446, Sustainable: false},
	{Rate: 0.59375, Slip: 0, ServiceRate: 0.639751552795031, Sustainable: true},
	{Rate: 0.828125, Slip: 0, ServiceRate: 0.5042016806722689, Sustainable: true},
	{Rate: 0.9453125, Slip: 0.001, ServiceRate: 0.44565217391304346, Sustainable: false},
}}

type field struct {
	name  string
	value any
}

// pinnedFields names every field of a Result the pin compares: all of them
// but the two histograms, which the quantiles and the mean summarize, and
// Metrics, which folds from the events the journal hash covers and adds a
// wall-clock total.
func pinnedFields(r *load.Result) []field {
	return []field{
		{"Process", r.Process}, {"Rate", r.Rate}, {"Horizon", r.Horizon},
		{"Scheduled", r.Scheduled}, {"Submitted", r.Submitted}, {"Served", r.Served},
		{"Rejected", r.Rejected}, {"Pending", r.Pending}, {"Ticks", r.Ticks},
		{"SustainedRate", r.SustainedRate}, {"P50", r.P50}, {"P99", r.P99}, {"P999", r.P999},
		{"Mean", r.Mean}, {"SlipP99", r.SlipP99}, {"FracWithinTick", r.FracWithinTick},
		{"ServiceRate", r.ServiceRate}, {"BackpressureOnset", r.BackpressureOnset},
		{"PeakQueueDepth", r.PeakQueueDepth}, {"StreamHash", r.StreamHash}, {"JournalHash", r.JournalHash},
	}
}

// TestJournalPinnedToBaseline reruns the default configuration and requires
// every scenario's measurements, both its fingerprints (the generated order
// stream and the full decision journal) and the rate search's answer and
// probes to equal the pinned ones exactly. Everything here is virtual-clock,
// so any difference is a change in behaviour — of an arrival process, the
// dispatch path, an event payload or the order of events — and a deliberate
// one updates the tables above. The scenarios run at the default K = 1 and
// again with the insert prewarm on two goroutines: K must change nothing.
func TestJournalPinnedToBaseline(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			o := defaultRun
			o.shards = shards
			results, search, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(pinnedRuns) {
				t.Fatalf("%d scenarios, pinned %d", len(results), len(pinnedRuns))
			}
			for i, r := range results {
				want := pinnedFields(&pinnedRuns[i])
				for j, got := range pinnedFields(r) {
					if got.value != want[j].value {
						t.Errorf("scenario %d (%s): %s = %#v, pinned %#v", i, r.Process, got.name, got.value, want[j].value)
					}
				}
			}
			if !reflect.DeepEqual(*search, pinnedSearch) {
				t.Errorf("rate search = %+v,\npinned %+v", *search, pinnedSearch)
			}
		})
	}
}

// TestNegativeSizesFail: -workers, -buffer and -drain below zero come back
// as errors naming the load.Config field, where -workers -1 used to panic
// and the other two were accepted.
func TestNegativeSizesFail(t *testing.T) {
	for _, tc := range []struct {
		field                  string
		workers, buffer, drain int
	}{
		{"Workers", -1, 256, 64},
		{"Buffer", 60, -1, 64},
		{"DrainPerTick", 60, 256, -1},
	} {
		o := options{quiet: true, city: "cdc", workers: tc.workers, horizon: 60, tick: 10, seed: 1, rate: 0.5,
			buffer: tc.buffer, drain: tc.drain, bpBuffer: 64, bpDrain: 8}
		if _, _, err := run(o); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s = -1: err = %v, want an error naming %s", tc.field, err, tc.field)
		}
	}
}
