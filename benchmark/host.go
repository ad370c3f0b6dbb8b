package main

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the fingerprint printed with every result, so a number is
// never read without the machine it was taken on.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Kernel     string  `json:"kernel"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
	StealPct   float64 `json:"steal_pct_over_run"`
	Clients    int     `json:"clients"`
}

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() (cpuTicks, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		// user nice system idle iowait irq softirq steal; guest time is
		// already inside user, so stop there.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// hostProbe captures the start-of-run half of the fingerprint; finish adds
// the share of CPU time the hypervisor stole while the run lasted.
type hostProbe struct {
	info  hostInfo
	ticks cpuTicks
	ok    bool
}

func startHostProbe() *hostProbe {
	p := &hostProbe{info: hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitID(),
		Kernel:     kernelRelease(),
	}}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			p.info.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	p.ticks, p.ok = readCPUTicks()
	return p
}

func (p *hostProbe) finish(clients int) hostInfo {
	p.info.Clients = clients
	if now, ok := readCPUTicks(); ok && p.ok && now.total > p.ticks.total {
		p.info.StealPct = 100 * float64(now.steal-p.ticks.steal) / float64(now.total-p.ticks.total)
	}
	return p.info
}

// commitID is the VCS revision stamped into the binary, else what git says
// about the working directory, else "unknown" (the driver's checkout is not
// a repository).
func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value[:min(12, len(s.Value))]
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func kernelRelease() string {
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		return strings.TrimSpace(string(data))
	}
	return runtime.GOOS
}

// cpuTime is the process's user+system CPU time so far (getrusage), which
// includes every thread: GC workers, the in-process load generator and the
// server alike.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
