package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: within a second its speed
// flips between a fast and a slow mode about 1.6 times apart, over
// minutes the share of slow time drifts, and in bursts the host steals
// the VM's CPUs, so one run's wall-clock missions per second can differ
// from the next run's by 30%. The timed passes therefore time the
// missions in CPU time, which leaves stolen time out, and sample the
// host's speed alongside them by timing a fixed reference kernel; they
// report times scaled to the kernel's nominal speed.
//
// The kernel is a small pairwise-force loop with a square root per pair,
// like the flocking controller that dominates a simulation step; the
// slow mode slows both by the same factor (correlation 0.94 over 1 s
// windows), while a dependent arithmetic chain barely tracks it. The
// kernel belongs to the benchmark, so no change to the program moves it.

// refNominal is the kernel's nominal time: reported times are scaled as
// if every reference sample had taken this long. It only sets the unit:
// it is near the samples' mean during the passes on the 2-core VM the
// benchmark was written on, where single samples took 0.75–1.4 times it.
const refNominal = 150e-6 // seconds

// refEvery is the least mission CPU time between two reference samples.
const refEvery = 10 * time.Millisecond

type refBody struct{ x, y, z, vx, vy, vz float64 }

var (
	refStart = func() []refBody {
		b := make([]refBody, 24)
		// A fixed lattice with a deterministic jitter, so every run times
		// the same work.
		for i := range b {
			f := float64(i)
			b[i] = refBody{x: 13 * math.Mod(f*7.3, 11), y: 9 * math.Mod(f*5.1, 13), z: math.Mod(f*3.7, 10)}
		}
		return b
	}()
	refBodies = make([]refBody, len(refStart))
	refSink   float64
)

// refKernel runs the reference work once: 60 steps of a 24-body system
// under a spring-like pairwise force.
func refKernel() {
	b := refBodies
	copy(b, refStart)
	for it := 0; it < 60; it++ {
		for i := range b {
			var fx, fy, fz float64
			for j := range b {
				if i == j {
					continue
				}
				dx, dy, dz := b[j].x-b[i].x, b[j].y-b[i].y, b[j].z-b[i].z
				d := math.Sqrt(dx*dx + dy*dy + dz*dz + 1e-3)
				if d < 30 {
					w := (d - 10) / d
					fx += w * dx
					fy += w * dy
					fz += w * dz
				} else {
					fx += dx * 1e-3
				}
			}
			b[i].vx = 0.9*b[i].vx + 0.01*fx
			b[i].vy = 0.9*b[i].vy + 0.01*fy
			b[i].vz = 0.9*b[i].vz + 0.01*fz
		}
		for i := range b {
			b[i].x += 0.05 * b[i].vx
			b[i].y += 0.05 * b[i].vy
			b[i].z += 0.05 * b[i].vz
		}
	}
	refSink += b[0].x
}

// CPU clocks of clock_gettime. They count only the time a thread ran:
// with paravirtual steal accounting, as on the VM the benchmark was
// written on, the time the host stole from the VM is left out.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno))
	}
	return float64(ts.Nano()) / 1e9
}

// cpuTime is the CPU time of the whole process, in seconds: the
// goroutine that runs a mission and the collector's workers alike.
func cpuTime() float64 { return cpuClock(clockProcessCPU) }

// refSample times the reference kernel once, in CPU seconds of the
// thread that runs it. The goroutine is wired to its thread for the
// sample, so nothing else runs on it.
func refSample() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := cpuClock(clockThreadCPU)
	refKernel()
	return cpuClock(clockThreadCPU) - t0
}

// gauge samples the host's speed during an untraced pass and scales the
// pass's mission CPU time by it, stretch by stretch: each stretch of
// mission CPU time is scaled by the sample that ends it, so a pass that
// ran partly in the slow mode is corrected where it was slow. (Scaling a
// whole pass by its mean sample corrects less: on a fixed workload its
// 10 s windows spread 4.2% against 2.3% scaled stretch by stretch.) A
// nil *gauge samples nothing.
type gauge struct {
	last float64 // process CPU time at the mission's start or the end of the last sample
	cpu  float64 // mission CPU seconds, less the samples
	ref  float64 // the same at the kernel's nominal speed
	n    int
}

// begin marks the start of a mission's timed work.
func (g *gauge) begin() {
	if g != nil {
		g.last = cpuTime()
	}
}

// tick samples the kernel if at least refEvery of mission CPU time has
// passed since the last sample, or always when force is set.
func (g *gauge) tick(force bool) {
	if g == nil {
		return
	}
	gap := cpuTime() - g.last
	if gap <= 0 || (!force && gap < refEvery.Seconds()) {
		return
	}
	r := refSample()
	g.cpu += gap
	g.ref += gap * refNominal / r
	g.n++
	g.last = cpuTime()
}
