// Command snapmerge is the fan-in node of a cross-process aggregation tree:
// it reads N snapshot files (as written by `streammine -snapshot` or any
// process calling gpustream.MarshalSnapshot), merges them with the shard
// merge rules, and either prints the merged answers or re-marshals the
// merged root snapshot for the next tree level.
//
// Usage:
//
//	snapmerge a.snap b.snap c.snap              (print merged answers)
//	snapmerge -o root.snap a.snap b.snap        (emit a merged snapshot for
//	                                             the next aggregation level)
//	snapmerge -type uint64 shard*.snap          (non-float32 streams)
//	snapmerge -phis 0.5,0.99 -support 0.01 ...  (query probes)
//	snapmerge -keytype uint64 shard*.snap       (keyed snapshots, as written by
//	                                             `streammine -keyed`; -type is
//	                                             the value type, -keytype the
//	                                             key type)
//
// All input files must share one family and one value type; workers feeding
// an aggregation tree of height h should run at gpustream.TreeEps(eps, h)
// so the merged root answer stays eps-approximate end to end.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gpustream"
)

func main() {
	typeName := flag.String("type", "float32", "snapshot value type: float32|float64|uint32|uint64|int32|int64")
	keyTypeName := flag.String("keytype", "", "keyed snapshots: the key type (same choices as -type; empty = unkeyed)")
	out := flag.String("o", "", "write the merged snapshot to this file instead of printing answers")
	phis := flag.String("phis", "0.01,0.25,0.5,0.75,0.99", "quantile probes (quantile-answering families)")
	support := flag.Float64("support", 0.01, "heavy-hitter support threshold (frequency-answering families)")
	top := flag.Int("top", 10, "max heavy hitters to print")
	flag.Parse()

	paths := flag.Args()
	if len(paths) == 0 {
		fatalf("no snapshot files given")
	}

	var err error
	if kt := strings.ToLower(strings.TrimSpace(*keyTypeName)); kt != "" {
		err = dispatchKeyed(kt, strings.ToLower(strings.TrimSpace(*typeName)), paths, *out, *phis, *support, *top)
	} else {
		switch strings.ToLower(strings.TrimSpace(*typeName)) {
		case "float32":
			err = run[float32](paths, *out, *phis, *support, *top)
		case "float64":
			err = run[float64](paths, *out, *phis, *support, *top)
		case "uint32":
			err = run[uint32](paths, *out, *phis, *support, *top)
		case "uint64":
			err = run[uint64](paths, *out, *phis, *support, *top)
		case "int32":
			err = run[int32](paths, *out, *phis, *support, *top)
		case "int64":
			err = run[int64](paths, *out, *phis, *support, *top)
		default:
			err = fmt.Errorf("unknown value type %q", *typeName)
		}
	}
	if err != nil {
		fatalf("%v", err)
	}
}

// dispatchKeyed resolves the key type, then the value type — the keyed
// family is the one wire family instantiated over two value types, so its
// decode entry point needs both resolved at compile time.
func dispatchKeyed(keyType, valType string, paths []string, out, phis string, support float64, top int) error {
	switch keyType {
	case "float32":
		return dispatchKeyedVal[float32](valType, paths, out, phis, support, top)
	case "float64":
		return dispatchKeyedVal[float64](valType, paths, out, phis, support, top)
	case "uint32":
		return dispatchKeyedVal[uint32](valType, paths, out, phis, support, top)
	case "uint64":
		return dispatchKeyedVal[uint64](valType, paths, out, phis, support, top)
	case "int32":
		return dispatchKeyedVal[int32](valType, paths, out, phis, support, top)
	case "int64":
		return dispatchKeyedVal[int64](valType, paths, out, phis, support, top)
	}
	return fmt.Errorf("unknown key type %q", keyType)
}

func dispatchKeyedVal[K gpustream.Value](valType string, paths []string, out, phis string, support float64, top int) error {
	switch valType {
	case "float32":
		return runKeyed[K, float32](paths, out, phis, support, top)
	case "float64":
		return runKeyed[K, float64](paths, out, phis, support, top)
	case "uint32":
		return runKeyed[K, uint32](paths, out, phis, support, top)
	case "uint64":
		return runKeyed[K, uint64](paths, out, phis, support, top)
	case "int32":
		return runKeyed[K, int32](paths, out, phis, support, top)
	case "int64":
		return runKeyed[K, int64](paths, out, phis, support, top)
	}
	return fmt.Errorf("unknown value type %q", valType)
}

// mergeFiles is the tool's one load → merge → emit: it unmarshals every path
// (a decode error names its file), folds the merge, and — when out is set —
// writes the re-marshaled root there for the next tree level. written is
// the emitted byte count, zero when the caller is to print answers instead.
func mergeFiles[S any](paths []string, out string,
	unmarshal func([]byte) (S, error), mergeAll func(...S) (S, error), marshal func(S) ([]byte, error),
) (merged S, written int, err error) {
	snaps := make([]S, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return merged, 0, err
		}
		s, err := unmarshal(data)
		if err != nil {
			return merged, 0, fmt.Errorf("%s: %w", path, err)
		}
		snaps = append(snaps, s)
	}
	if merged, err = mergeAll(snaps...); err != nil || out == "" {
		return merged, 0, err
	}
	blob, err := marshal(merged)
	if err != nil {
		return merged, 0, err
	}
	return merged, len(blob), os.WriteFile(out, blob, 0o644)
}

// runKeyed merges keyed snapshots at key type K and value type T and
// reports the emitted root or the merged answers.
func runKeyed[K, T gpustream.Value](paths []string, out, phis string, support float64, top int) error {
	merged, written, err := mergeFiles(paths, out,
		gpustream.UnmarshalKeyedSnapshot[K, T], gpustream.MergeAllKeyed[K, T], gpustream.MarshalKeyedSnapshot[K, T])
	if err != nil {
		return err
	}
	if out != "" {
		fmt.Printf("merged %d keyed snapshots covering %d observations into %s (%d bytes, %d keys: %d frugal, %d promoted)\n",
			len(paths), merged.Count(), out, written, merged.Keys(), merged.FrugalKeys(), merged.PromotedKeys())
		return nil
	}

	fmt.Printf("merged %d keyed snapshots: %d observations, %d keys (%d frugal, %d promoted, %d promotions)\n",
		len(paths), merged.Count(), merged.Keys(), merged.FrugalKeys(), merged.PromotedKeys(), merged.Promotions())
	heavy := merged.HeavyKeys(support)
	probes := parsePhis(phis)
	fmt.Printf("heavy keys (support %g):\n", support)
	for i, it := range heavy {
		if i >= top {
			fmt.Printf("  ... and %d more\n", len(heavy)-top)
			break
		}
		fmt.Printf("  key %v: freq >= %d, quantiles", it.Value, it.Freq)
		for _, phi := range probes {
			if v, ok := merged.Quantile(it.Value, phi); ok {
				fmt.Printf(" %.3f->%v", phi, v)
			}
		}
		fmt.Println()
	}
	return nil
}

// run merges the snapshots at value type T and reports the emitted root or
// the merged answers.
func run[T gpustream.Value](paths []string, out, phis string, support float64, top int) error {
	merged, written, err := mergeFiles(paths, out,
		gpustream.UnmarshalSnapshot[T], gpustream.MergeAll[T], gpustream.MarshalSnapshot[T])
	if err != nil {
		return err
	}
	if out != "" {
		fmt.Printf("merged %d snapshots covering %d values into %s (%d bytes, %d summary entries)\n",
			len(paths), merged.Count(), out, written, merged.Size())
		return nil
	}

	fmt.Printf("merged %d snapshots: %d values, %d summary entries\n",
		len(paths), merged.Count(), merged.Size())
	answered := false
	if _, ok := merged.Quantile(0.5); ok {
		answered = true
		fmt.Println("quantiles:")
		for _, phi := range parsePhis(phis) {
			v, _ := merged.Quantile(phi)
			fmt.Printf("  phi=%.3f -> %v\n", phi, v)
		}
	}
	if items, ok := merged.HeavyHitters(support); ok {
		answered = true
		fmt.Printf("heavy hitters (support %g):\n", support)
		for i, it := range items {
			if i >= top {
				fmt.Printf("  ... and %d more\n", len(items)-top)
				break
			}
			fmt.Printf("  value %v: freq >= %d\n", it.Value, it.Freq)
		}
	}
	if !answered {
		fmt.Println("snapshot family answers no queries on an empty stream")
	}
	return nil
}

func parsePhis(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		phi, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || phi < 0 || phi > 1 {
			fatalf("bad quantile probe %q", part)
		}
		out = append(out, phi)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "snapmerge: "+format+"\n", args...)
	os.Exit(1)
}
