package adaptive

import (
	"testing"
	"time"

	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
)

// simCandidates builds three named do-nothing candidates whose Modeled
// priors deliberately disagree with the measured costs the simulator will
// report, so a passing probe proves measurement beats the prior.
func simCandidates() []Candidate[float32] {
	mk := func(name string, modeledNsPerValue float64) Candidate[float32] {
		return Candidate[float32]{
			Backend: name,
			New: func() sorter.Sorter[float32] {
				return sorter.Func[float32]{SortFunc: func([]float32) {}, Label: name}
			},
			Modeled: func(n int) time.Duration {
				return time.Duration(modeledNsPerValue * float64(n))
			},
		}
	}
	// Prior claims gpu is cheapest; the simulated measurements below say
	// samplesort is.
	return []Candidate[float32]{mk("gpu", 10), mk("cpu", 50), mk("samplesort", 30)}
}

// simulate drives windows through the controller: cost(name, w) is the
// simulated sort cost in ns/value when backend name sorts windows of w.
// It returns the final knobs and the smallest window ever scheduled.
func simulate(ctrl *Controller[float32], cost func(name string, w int) float64, windows int, startWindow int) (pipeline.Knobs[float32], int) {
	cur := pipeline.Knobs[float32]{
		Sorter: sorter.Func[float32]{SortFunc: func([]float32) {}, Label: "static"},
		Window: startWindow,
	}
	minSeen := startWindow
	var st pipeline.Stats
	for i := 0; i < windows; i++ {
		per := cost(cur.Sorter.Name(), cur.Window)
		st.Windows++
		st.SortedValues += int64(cur.Window)
		st.Sort += time.Duration(per * float64(cur.Window))
		if next, ok := ctrl.Retune(st, cur); ok {
			if next.Sorter != nil {
				cur.Sorter = next.Sorter
			}
			if next.Window > 0 {
				cur.Window = next.Window
			}
		}
		if cur.Window < minSeen {
			minSeen = cur.Window
		}
	}
	return cur, minSeen
}

func flatCost(base map[string]float64) func(string, int) float64 {
	return func(name string, _ int) float64 {
		if c, ok := base[name]; ok {
			return c
		}
		return 100
	}
}

func TestProbeCommitsToMeasuredArgmin(t *testing.T) {
	ctrl := New(simCandidates(), Config{})
	cost := flatCost(map[string]float64{"gpu": 100, "cpu": 60, "samplesort": 30})
	cur, _ := simulate(ctrl, cost, 60, 1000)
	if cur.Sorter.Name() != "samplesort" {
		t.Fatalf("committed to %q, want samplesort (the measured argmin)", cur.Sorter.Name())
	}
	d := ctrl.Decision()
	if d.Backend != "samplesort" {
		t.Fatalf("Decision().Backend = %q", d.Backend)
	}
	if d.Phase == PhaseProbe {
		t.Fatalf("still probing after 60 windows")
	}
	if len(d.NsPerValue) != 3 {
		t.Fatalf("NsPerValue covers %d backends, want 3: %v", len(d.NsPerValue), d.NsPerValue)
	}
	if d.NsPerValue["gpu"] <= d.NsPerValue["samplesort"] {
		t.Fatalf("measured costs inverted: %v", d.NsPerValue)
	}
}

func TestProbeOrderFollowsModeledPrior(t *testing.T) {
	ctrl := New(simCandidates(), Config{})
	// One Retune call performs adoption and switches to the first probe
	// candidate, which must be the modeled-cheapest one (gpu in the sim).
	cur := pipeline.Knobs[float32]{Sorter: sorter.Func[float32]{Label: "static"}, Window: 500}
	next, ok := ctrl.Retune(pipeline.Stats{}, cur)
	if !ok || next.Sorter.Name() != "gpu" {
		t.Fatalf("first probe candidate = %v (ok=%v), want the modeled-best gpu", next.Sorter, ok)
	}
}

func TestWindowHillClimbGrowsWhenBiggerIsFaster(t *testing.T) {
	ctrl := New(simCandidates(), Config{TuneWindow: true})
	// Per-value cost falls with the window (amortized fixed overhead), so
	// the climb should run all the way to MaxWindow = 64*start.
	cost := func(name string, w int) float64 {
		base := flatCost(map[string]float64{"gpu": 100, "cpu": 60, "samplesort": 30})(name, w)
		return base * (1 + 200/float64(w))
	}
	cur, minSeen := simulate(ctrl, cost, 400, 100)
	if cur.Window != 6400 {
		t.Fatalf("final window %d, want MaxWindow 6400", cur.Window)
	}
	if minSeen < 100 {
		t.Fatalf("scheduled a window of %d below MinWindow 100", minSeen)
	}
	if d := ctrl.Decision(); d.Phase != PhaseSteady {
		t.Fatalf("phase %q after the climb, want steady", d.Phase)
	}
}

func TestWindowHillClimbRespectsMinWindow(t *testing.T) {
	ctrl := New(simCandidates(), Config{TuneWindow: true})
	// Per-value cost grows with the window, so every trial regresses; the
	// controller must settle back at the construction window and never
	// schedule below it.
	cost := func(name string, w int) float64 {
		base := flatCost(map[string]float64{"gpu": 100, "cpu": 60, "samplesort": 30})(name, w)
		return base * (1 + float64(w)/500)
	}
	cur, minSeen := simulate(ctrl, cost, 200, 100)
	if cur.Window != 100 {
		t.Fatalf("final window %d, want the construction window 100", cur.Window)
	}
	if minSeen < 100 {
		t.Fatalf("scheduled a window of %d below MinWindow 100", minSeen)
	}
}

func TestSteadyStateReprobesOnRegression(t *testing.T) {
	ctrl := New(simCandidates(), Config{})
	// samplesort is cheapest until window 80, then becomes pathological;
	// the controller must re-probe and land on cpu. The regression check
	// runs every 64 steady windows, so the second one (window ~140) sees it.
	win := 0
	cost := func(name string, w int) float64 {
		win++
		c := flatCost(map[string]float64{"gpu": 100, "cpu": 60, "samplesort": 30})(name, w)
		if name == "samplesort" && win > 80 {
			c = 500
		}
		return c
	}
	cur, _ := simulate(ctrl, cost, 400, 1000)
	if got := cur.Sorter.Name(); got != "cpu" {
		t.Fatalf("after regime change the controller runs %q, want cpu", got)
	}
	if d := ctrl.Decision(); d.Switches < 4 {
		t.Fatalf("expected at least the probe switches plus a re-probe, got %d", d.Switches)
	}
}

func TestPinnedNeverChangesKnobs(t *testing.T) {
	p := Pinned[float32]()
	cur := pipeline.Knobs[float32]{Sorter: sorter.Func[float32]{Label: "x"}, Window: 123}
	for i := 0; i < 10; i++ {
		st := pipeline.Stats{Windows: int64(i), SortedValues: int64(100 * i), Sort: time.Duration(i) * time.Millisecond}
		if next, ok := p.Retune(st, cur); ok || next.Sorter != nil || next.Window != 0 {
			t.Fatalf("pinned tuner changed knobs: %+v ok=%v", next, ok)
		}
	}
}

func TestTuneWindowOffKeepsWindowFixed(t *testing.T) {
	ctrl := New(simCandidates(), Config{TuneWindow: false})
	cost := flatCost(map[string]float64{"gpu": 100, "cpu": 60, "samplesort": 30})
	cur, minSeen := simulate(ctrl, cost, 300, 250)
	if cur.Window != 250 || minSeen != 250 {
		t.Fatalf("window moved with TuneWindow off: final %d min %d", cur.Window, minSeen)
	}
}

// modeEvent is one execution-mode command the controller issued: the window
// whose Retune returned it and the mode it asked for.
type modeEvent struct {
	At    int
	Async pipeline.AsyncKnob
}

// driveModes plays the pipeline's side of the Tuner contract for the
// concurrency phase over scripted Stats deltas: every window costs
// sortNs(backend) in the sort stage and restNs in merge+compress per value,
// and while the mode is async the executor hides hiddenNs of it (Overlap)
// and reports windows in flight. It applies every returned knob as the core
// does, records the mode commands, and fails the test if a returned knob set
// ever names a sorter or window outside allowed.
func driveModes(t *testing.T, ctrl *Controller[float32], windows, window int, startAsync bool,
	sortNs map[string]float64, restNs, hiddenNs float64, allowed map[string]bool) []modeEvent {
	t.Helper()
	cur := pipeline.Knobs[float32]{
		Sorter: sorter.Func[float32]{SortFunc: func([]float32) {}, Label: "static"},
		Window: window,
		Async:  pipeline.AsyncOff,
	}
	if startAsync {
		cur.Async = pipeline.AsyncOn
	}
	var (
		st     pipeline.Stats
		events []modeEvent
	)
	for i := 0; i < windows; i++ {
		per, ok := sortNs[cur.Sorter.Name()]
		if !ok {
			per = 100
		}
		w := float64(cur.Window)
		st.Windows++
		st.SortedValues += int64(cur.Window)
		st.Sort += time.Duration(per * w)
		st.Merge += time.Duration(restNs * w)
		if cur.Async == pipeline.AsyncOn {
			st.Overlap += time.Duration(hiddenNs * w)
			st.MaxInFlight = 2
		}
		next, ok := ctrl.Retune(st, cur)
		if !ok {
			continue
		}
		if next.Sorter != nil {
			if !allowed[next.Sorter.Name()] {
				t.Fatalf("window %d: controller scheduled backend %q", i, next.Sorter.Name())
			}
			cur.Sorter = next.Sorter
		}
		if next.Window > 0 {
			if next.Window != window {
				t.Fatalf("window %d: controller moved the window to %d with TuneWindow off", i, next.Window)
			}
			cur.Window = next.Window
		}
		if next.Async != pipeline.AsyncKeep {
			events = append(events, modeEvent{At: i, Async: next.Async})
			cur.Async = next.Async
		}
	}
	return events
}

func TestConcurrencyPhase(t *testing.T) {
	all := map[string]bool{"gpu": true, "cpu": true, "samplesort": true}
	costs := map[string]float64{"gpu": 100, "cpu": 60, "samplesort": 30}
	cpuOnly := func() []Candidate[float32] {
		for _, c := range simCandidates() {
			if c.Backend == "cpu" {
				return []Candidate[float32]{c}
			}
		}
		panic("no cpu candidate")
	}
	cases := []struct {
		name       string
		cands      []Candidate[float32]
		cfg        Config
		startAsync bool
		hiddenNs   float64
		allowed    map[string]bool
		want       []modeEvent
		backend    string
		async      string
		switches   int
	}{
		{
			// Three probe bursts of 4 (window 0 adopts), then one burst in
			// the incumbent sync mode and one flipped. Async hides nothing,
			// so the flip fails the hysteresis margin and is undone.
			name: "incumbent wins", cands: simCandidates(), cfg: Config{TuneAsync: true},
			hiddenNs: 0, allowed: all,
			want:    []modeEvent{{16, pipeline.AsyncOn}, {20, pipeline.AsyncOff}},
			backend: "samplesort", async: "sync", switches: 5,
		},
		{
			// Async hides 15 of the 50 ns critical path: the flipped mode is
			// already live when it wins, so no further command follows.
			name: "flip wins", cands: simCandidates(), cfg: Config{TuneAsync: true},
			hiddenNs: 15, allowed: all,
			want:    []modeEvent{{16, pipeline.AsyncOn}},
			backend: "samplesort", async: "async", switches: 4,
		},
		{
			// A concrete backend with elastic concurrency: one candidate, so
			// the probe is a baseline burst and only the mode ever moves.
			name: "single candidate moves only the mode", cands: cpuOnly(),
			cfg:      Config{ProbeFirst: "cpu", TuneAsync: true},
			hiddenNs: 15, allowed: map[string]bool{"cpu": true},
			want:    []modeEvent{{8, pipeline.AsyncOn}},
			backend: "cpu", async: "async", switches: 1,
		},
		{
			// Built async: windows are in flight from the first Retune on,
			// so every burst discards 2 stale windows before its 4 samples.
			// The incumbent (async, 65 ns) beats the flip (sync, 80 ns).
			name: "async incumbent discards stale windows", cands: cpuOnly(),
			cfg:        Config{ProbeFirst: "cpu", TuneAsync: true},
			startAsync: true, hiddenNs: 15, allowed: map[string]bool{"cpu": true},
			want:    []modeEvent{{12, pipeline.AsyncOff}, {18, pipeline.AsyncOn}},
			backend: "cpu", async: "async", switches: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctrl := New(tc.cands, tc.cfg)
			got := driveModes(t, ctrl, 40, 1000, tc.startAsync, costs, 20, tc.hiddenNs, tc.allowed)
			if len(got) != len(tc.want) {
				t.Fatalf("mode commands %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("mode commands %v, want %v", got, tc.want)
				}
			}
			d := ctrl.Decision()
			if d.Backend != tc.backend || d.Async != tc.async || d.Phase != PhaseSteady || d.Switches != tc.switches || d.Window != 1000 {
				t.Fatalf("Decision() = %+v, want backend %q async %q steady after %d switches at window 1000",
					d, tc.backend, tc.async, tc.switches)
			}
		})
	}
}

// TestWindowClimbSequence pins the exact window schedule of the hill-climb
// over scripted per-window costs. They are flat across backends, so the
// probe (three bursts of 4 windows) commits to its first candidate and every
// later move is the climb's.
func TestWindowClimbSequence(t *testing.T) {
	cases := []struct {
		name string
		ns   map[int]float64 // sort ns/value by window size
		want []int           // every window the controller commanded, in order
	}{
		{"doubles to the cap", map[int]float64{100: 64, 200: 32, 400: 16, 800: 8, 1600: 4, 3200: 2, 6400: 1},
			[]int{200, 400, 800, 1600, 3200, 6400}},
		{"2x helps 4x regresses, halving step regresses too", map[int]float64{100: 100, 200: 60, 400: 90},
			[]int{200, 400, 100, 200}},
		{"halving step wins and stops at the floor", map[int]float64{100: 100, 200: 60, 400: 90, -100: 40},
			[]int{200, 400, 100}},
		{"nothing helps", map[int]float64{100: 100, 200: 100},
			[]int{200, 100}},
		{"improvement within hysteresis", map[int]float64{100: 100, 200: 99},
			[]int{200, 100}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctrl := New(simCandidates(), Config{TuneWindow: true})
			cur := pipeline.Knobs[float32]{Sorter: sorter.Func[float32]{SortFunc: func([]float32) {}, Label: "static"}, Window: 100}
			var (
				st      pipeline.Stats
				got     []int
				climbed bool // the climb has left the construction window once
			)
			for i := 0; i < 120; i++ {
				per := tc.ns[cur.Window]
				if alt, ok := tc.ns[-cur.Window]; ok && climbed {
					per = alt // the cost this window shows on its second visit
				}
				st.Windows++
				st.SortedValues += int64(cur.Window)
				st.Sort += time.Duration(per * float64(cur.Window))
				next, ok := ctrl.Retune(st, cur)
				if !ok {
					continue
				}
				if next.Sorter != nil {
					cur.Sorter = next.Sorter
				}
				if next.Window > 0 && next.Window != cur.Window {
					got = append(got, next.Window)
					cur.Window = next.Window
					climbed = true
				}
			}
			if len(got) != len(tc.want) {
				t.Fatalf("window schedule %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("window schedule %v, want %v", got, tc.want)
				}
			}
			if d := ctrl.Decision(); d.Phase != PhaseSteady || d.Window != tc.want[len(tc.want)-1] {
				t.Fatalf("Decision() = %+v, want steady at window %d", d, tc.want[len(tc.want)-1])
			}
		})
	}
}
