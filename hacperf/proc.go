package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Process-tree accounting. The end-to-end cost of an operation is the
// CPU it burns in the system under test, wherever that work runs: in
// this process, in a live subprocess (exec-mode native modules, haccd
// replicas), or in a subprocess that has already exited and been
// reaped. Counting only this process would let a change that moves
// work into or out of a subprocess read as a gain.

// clockTick is the unit of utime/stime in /proc/<pid>/stat. USER_HZ is
// 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procStat is the subset of /proc/<pid>/stat the benchmark reads.
type procStat struct {
	pid, ppid int
	// cpu is utime+stime+cutime+cstime: the process's own CPU plus
	// that of the children it has reaped.
	cpu time.Duration
}

// readProcStat parses /proc/<pid>/stat. The command name may contain
// spaces and parentheses, so fields are counted from the last ')'.
func readProcStat(pid int) (procStat, bool) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return procStat{}, false
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return procStat{}, false
	}
	// After ")": state(3) ppid(4) ... utime(14) stime(15) cutime(16) cstime(17).
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 15 {
		return procStat{}, false
	}
	ppid, _ := strconv.Atoi(f[1])
	var ticks int64
	for _, k := range []int{11, 12, 13, 14} {
		v, _ := strconv.ParseInt(f[k], 10, 64)
		ticks += v
	}
	return procStat{pid: pid, ppid: ppid, cpu: time.Duration(ticks) * clockTick}, true
}

// childrenFiles records whether the kernel lists each thread's
// children in /proc/<pid>/task/<tid>/children (CONFIG_PROC_CHILDREN).
var childrenFiles = func() bool {
	pid := strconv.Itoa(os.Getpid())
	_, err := os.Stat("/proc/" + pid + "/task/" + pid + "/children")
	return err == nil
}()

// descendants lists the live descendants of root (not root itself).
// Walking the children lists costs tens of microseconds; scanning every
// process, the fallback, costs about a millisecond.
func descendants(root int) []procStat {
	if !childrenFiles {
		return scanDescendants(root)
	}
	var out []procStat
	queue := []int{root}
	for len(queue) > 0 {
		p := strconv.Itoa(queue[0])
		queue = queue[1:]
		tasks, _ := os.ReadDir("/proc/" + p + "/task") // empty if p exited
		for _, t := range tasks {
			b, _ := os.ReadFile("/proc/" + p + "/task/" + t.Name() + "/children")
			for _, f := range strings.Fields(string(b)) {
				c, _ := strconv.Atoi(f)
				if st, ok := readProcStat(c); ok {
					out = append(out, st)
					queue = append(queue, c)
				}
			}
		}
	}
	return out
}

// scanDescendants finds root's descendants by reading every process's
// parent from /proc.
func scanDescendants(root int) []procStat {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	children := map[int][]procStat{}
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if st, ok := readProcStat(pid); ok {
			children[st.ppid] = append(children[st.ppid], st)
		}
	}
	var out []procStat
	queue := []int{root}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, c := range children[p] {
			out = append(out, c)
			queue = append(queue, c.pid)
		}
	}
	return out
}

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfCPU is this process's user+sys CPU, all threads, at µs precision.
func selfCPU() time.Duration { return rusageCPU(syscall.RUSAGE_SELF) }

// treeCPU is the user+sys CPU of this process, its reaped children and
// its live descendants (with what they reaped). The descendant walk
// runs before this process's own clock is read, so its cost falls
// outside an interval that starts with treeCPU; treeCPUEnd reads in
// the opposite order to close one.
func treeCPU() time.Duration {
	live := liveCPU()
	return live + rusageCPU(syscall.RUSAGE_CHILDREN) + selfCPU()
}

func treeCPUEnd() time.Duration {
	self := selfCPU()
	return self + rusageCPU(syscall.RUSAGE_CHILDREN) + liveCPU()
}

func liveCPU() time.Duration {
	var live time.Duration
	for _, d := range descendants(os.Getpid()) {
		live += d.cpu
	}
	return live
}

// pidsCPU is the CPU of the given processes and their live descendants
// (with everything they reaped): the serve workload's system under
// test is its replica processes, not the load generator.
func pidsCPU(pids []int) time.Duration {
	var sum time.Duration
	for _, pid := range pids {
		if st, ok := readProcStat(pid); ok {
			sum += st.cpu
		}
		for _, d := range descendants(pid) {
			sum += d.cpu
		}
	}
	return sum
}

// statusKB reads one "Key:  <n> kB" line of /proc/<pid>/status.
func statusKB(pid int, key string) int64 {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// peakRSSMB sums VmHWM over the given processes and their live
// descendants.
func peakRSSMB(pids []int) float64 {
	var kb int64
	for _, pid := range pids {
		kb += statusKB(pid, "VmHWM")
		for _, d := range descendants(pid) {
			kb += statusKB(d.pid, "VmHWM")
		}
	}
	return float64(kb) / 1024
}

// resetPeakRSS restarts this process's VmHWM at its current RSS, so the
// timed phase's peak is not the set-up's garbage. It reports whether
// the kernel supports the reset (Linux ≥ 4.0).
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// hostCPU is the aggregate "cpu" line of /proc/stat, in ticks.
type hostCPU struct{ total, steal int64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so it is not added again.
	for i := 1; i <= 8 && i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

// stealShare is the share of host CPU time the hypervisor stole
// between two readings.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
