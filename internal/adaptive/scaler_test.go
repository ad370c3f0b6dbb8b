package adaptive

import (
	"reflect"
	"testing"
	"time"
)

// command is one rescale the Scaler issued: the observation it answered
// (0 is the adopting first call) and the count it asked for.
type command struct {
	At    int
	Count int
}

// driveScaler plays the sharded family's side of the Rescaler contract on a
// scripted clock: every observation ingests one batch whose wall-clock cost
// is curve(observation, live shards) ns per value, and a positive return
// from Observe becomes the live count. It returns every command issued.
func driveScaler(s *Scaler, clock *time.Time, start, observations int, curve func(obs, shards int) float64) []command {
	const batch = 1000
	var (
		cmds   []command
		total  int64
		shards = start
	)
	for obs := 0; obs < observations; obs++ {
		if obs > 0 {
			total += batch
			*clock = clock.Add(time.Duration(curve(obs, shards) * batch))
		}
		if want := s.Observe(total, shards); want > 0 {
			cmds = append(cmds, command{At: obs, Count: want})
			shards = want
		}
	}
	return cmds
}

func TestScalerClimb(t *testing.T) {
	// Every case runs with a cap of 8 shards.
	byCount := func(ns map[int]float64) func(int, int) float64 {
		return func(_, shards int) float64 { return ns[shards] }
	}
	cases := []struct {
		name         string
		start        int
		observations int
		curve        func(obs, shards int) float64
		want         []command
		shards       int
		phase        string
		ns           map[string]float64
	}{
		{
			// Every doubling halves the cost: climb to the cap, one burst
			// of 6 after the 2 discarded observations of each rescale.
			name: "helps up to the cap", start: 1, observations: 60,
			curve:  func(_, shards int) float64 { return 800 / float64(shards) },
			want:   []command{{6, 2}, {14, 4}, {22, 8}},
			shards: 8, phase: PhaseSteady,
			ns: map[string]float64{"1": 800, "2": 400, "4": 200, "8": 100},
		},
		{
			// 2x helps, 4x regresses: from the regressed trial straight to
			// the halving step below the accepted count (one rescale, not a
			// revert then a halve); that regresses too, so back and steady.
			name: "2x helps 4x regresses", start: 1, observations: 60,
			curve:  byCount(map[int]float64{1: 100, 2: 60, 4: 90}),
			want:   []command{{6, 2}, {14, 4}, {22, 1}, {30, 2}},
			shards: 2, phase: PhaseSteady,
			ns: map[string]float64{"1": 100, "2": 60, "4": 90},
		},
		{
			// Flat cost: the doubling fails the hysteresis margin, the
			// halving step does too, and the construction count stands.
			name: "nothing helps", start: 2, observations: 60,
			curve:  func(int, int) float64 { return 100 },
			want:   []command{{6, 4}, {14, 1}, {22, 2}},
			shards: 2, phase: PhaseSteady,
			ns: map[string]float64{"1": 100, "2": 100, "4": 100},
		},
		{
			// No room to halve below one shard: a regressed doubling simply
			// reverts.
			name: "nothing helps at one shard", start: 1, observations: 40,
			curve:  func(int, int) float64 { return 100 },
			want:   []command{{6, 2}, {14, 1}},
			shards: 1, phase: PhaseSteady,
			ns: map[string]float64{"1": 100, "2": 100},
		},
		{
			// A win inside the hysteresis margin (4%) is not a win.
			name: "improvement within hysteresis", start: 1, observations: 40,
			curve:  byCount(map[int]float64{1: 100, 2: 96}),
			want:   []command{{6, 2}, {14, 1}},
			shards: 1, phase: PhaseSteady,
			ns: map[string]float64{"1": 100, "2": 96},
		},
		{
			// Settled at 2 (as in "2x helps 4x regresses") by observation
			// 30; from 40 on every count costs three times as much. The
			// regression check runs at the 11th steady burst (observation
			// 98), finds the EWMA past 1.5x the committed 60, and the climb
			// starts over from a fresh burst at the live count (ending at
			// 104): 4 regresses again, then 1.
			name: "degradation re-enters the climb", start: 1, observations: 160,
			curve: func(obs, shards int) float64 {
				ns := map[int]float64{1: 100, 2: 60, 4: 90}[shards]
				if obs >= 40 {
					ns *= 3
				}
				return ns
			},
			want:   []command{{6, 2}, {14, 4}, {22, 1}, {30, 2}, {104, 4}, {112, 1}, {120, 2}},
			shards: 2, phase: PhaseSteady,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := time.Unix(0, 0)
			s := newScalerAt(func() time.Time { return clock }, 8)
			got := driveScaler(s, &clock, tc.start, tc.observations, tc.curve)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("commands %v, want %v", got, tc.want)
			}
			d := s.Decision()
			if d.Shards != tc.shards || d.Phase != tc.phase || d.Rescales != len(tc.want) {
				t.Fatalf("Decision() = %+v, want shards %d phase %q rescales %d", d, tc.shards, tc.phase, len(tc.want))
			}
			if tc.ns != nil && !reflect.DeepEqual(d.NsPerValue, tc.ns) {
				t.Fatalf("NsPerValue = %v, want %v", d.NsPerValue, tc.ns)
			}
		})
	}
}

// TestScalerDiscardsPostRescaleObservations pins the two discarded
// observations after every rescale: they are made a thousand times slower
// than the rest, and neither a command nor a recorded statistic may notice.
// The lower median would hide two outliers in a burst of six by itself; what
// it cannot hide is the burst starting two observations early, which would
// move every later command two observations forward.
func TestScalerDiscardsPostRescaleObservations(t *testing.T) {
	clock := time.Unix(0, 0)
	s := newScalerAt(func() time.Time { return clock }, 8)
	lastRescale, shardsSeen := 0, 1
	curve := func(obs, shards int) float64 {
		if shards != shardsSeen {
			shardsSeen, lastRescale = shards, obs
		}
		ns := map[int]float64{1: 100, 2: 60, 4: 90}[shards]
		if lastRescale > 0 && obs-lastRescale < 2 {
			ns *= 1000
		}
		return ns
	}
	got := driveScaler(s, &clock, 1, 60, curve)
	want := []command{{6, 2}, {14, 4}, {22, 1}, {30, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("commands %v, want %v", got, want)
	}
	if ns, want := s.Decision().NsPerValue, (map[string]float64{"1": 100, "2": 60, "4": 90}); !reflect.DeepEqual(ns, want) {
		t.Fatalf("NsPerValue = %v, want %v: a post-rescale observation leaked into a burst", ns, want)
	}
}

// TestScalerClampsConstructionCount: a construction count above the cap is
// commanded down on the adopting observation itself.
func TestScalerClampsConstructionCount(t *testing.T) {
	clock := time.Unix(0, 0)
	s := newScalerAt(func() time.Time { return clock }, 4)
	if got := s.Observe(0, 16); got != 4 {
		t.Fatalf("first Observe at 16 shards commanded %d, want the cap 4", got)
	}
	if d := s.Decision(); d.Shards != 4 || d.Rescales != 1 {
		t.Fatalf("Decision() = %+v, want shards 4 after 1 rescale", d)
	}
}
