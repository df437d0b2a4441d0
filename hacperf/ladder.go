package main

import (
	"fmt"
	"time"

	"arraycomp/internal/core"
)

// The ladder: each ratio compares the default build against a variant
// that turns off exactly one layer, on the kernels that layer touches,
// so every ratio names the single layer that produces it. Only traced
// runs compile the variants.

// ladderReps is how many calls of each side a rung times; the rung
// alternates the two sides so slow drift on the host hits both.
const ladderReps = 3

// cost is the median per-call CPU and wall time of one side of a rung,
// summed over the rung's kernels.
type cost struct{ cpu, wall float64 }

// compare times base and variant programs of each kernel, alternating,
// and checks every output against the kernel's reference; a wrong
// output counts as a failed operation and is left out of the timing.
func compare(r *result, ks []*kernel, base, variant []*core.Program) (b, v cost) {
	for i, k := range ks {
		var bc, bw, vc, vw []float64
		for rep := 0; rep < ladderReps; rep++ {
			for side, p := range []*core.Program{base[i], variant[i]} {
				c0, w0 := treeCPU(), time.Now()
				check, err := k.run(p)
				w1, c1 := time.Now(), treeCPUEnd()
				r.count(1, 0)
				if err == nil {
					err = check()
				}
				if err != nil {
					r.count(0, 1)
					r.note("ladder: %v", err)
					continue
				}
				if side == 0 {
					bc, bw = append(bc, ms(c1-c0)), append(bw, ms(w1.Sub(w0)))
				} else {
					vc, vw = append(vc, ms(c1-c0)), append(vw, ms(w1.Sub(w0)))
				}
			}
		}
		b.cpu += median(bc)
		b.wall += median(bw)
		v.cpu += median(vc)
		v.wall += median(vw)
	}
	return b, v
}

// rung compiles the variant of each selected kernel and compares it
// with the workload's default programs.
func (w *kernelsWL) rung(r *result, pick func(*kernel) bool, variant core.Options) (b, v cost, err error) {
	var ks []*kernel
	var base, alt []*core.Program
	for _, k := range w.kernels {
		if !pick(k) {
			continue
		}
		p, err := k.compile(variant)
		if err != nil {
			return b, v, err
		}
		ks, base, alt = append(ks, k), append(base, k.prog), append(alt, p)
	}
	b, v = compare(r, ks, base, alt)
	return b, v, nil
}

func (w *kernelsWL) ladder(r *result) error {
	notStream := func(k *kernel) bool { return !k.extra.Stream }
	mesh := func(k *kernel) bool { return k.params["n"] == meshN && len(k.params) == 1 }
	with := func(f func(*core.Options)) core.Options {
		o := w.opts
		f(&o)
		return o
	}

	b, v, err := w.rung(r, notStream, with(func(o *core.Options) { o.NoOptimize = true }))
	if err != nil {
		return fmt.Errorf("ladder NoOptimize: %w", err)
	}
	r.set("loopir.opt.speedup", v.cpu/b.cpu, "ratio", fmt.Sprintf("NoOptimize CPU %.2f ms / default %.2f ms", v.cpu, b.cpu))

	b, v, err = w.rung(r, mesh, with(func(o *core.Options) { o.NoStencil = true }))
	if err != nil {
		return fmt.Errorf("ladder NoStencil: %w", err)
	}
	r.set("loopir.stencil.speedup", v.cpu/b.cpu, "ratio", fmt.Sprintf("NoStencil CPU %.2f ms / default %.2f ms", v.cpu, b.cpu))

	b, v, err = w.rung(r, func(k *kernel) bool { return k.name == "idxprop.spmv" }, with(func(o *core.Options) { o.NoIdxProp = true }))
	if err != nil {
		return fmt.Errorf("ladder NoIdxProp: %w", err)
	}
	r.set("idxprop.speedup", v.cpu/b.cpu, "ratio", fmt.Sprintf("NoIdxProp CPU %.2f ms / default %.2f ms", v.cpu, b.cpu))

	b, v, err = w.rung(r, notStream, with(func(o *core.Options) { o.Workers = 1 }))
	if err != nil {
		return fmt.Errorf("ladder Workers=1: %w", err)
	}
	r.set("loopir.par.cpu_ratio", b.cpu/v.cpu, "ratio", fmt.Sprintf("Workers=%d CPU %.2f ms / Workers=1 %.2f ms", w.cfg.nproc, b.cpu, v.cpu))
	r.set("loopir.par.wall_speedup", v.wall/b.wall, "ratio", fmt.Sprintf("Workers=1 wall %.2f ms / Workers=%d %.2f ms", v.wall, w.cfg.nproc, b.wall))

	// The stream rung's variant is the materialized build of the chain.
	chain := w.kernel("stream.chain")
	matK := *chain
	matK.extra.Stream = false
	mat, err := matK.compile(w.opts)
	if err != nil {
		return err
	}
	b, v = compare(r, []*kernel{chain}, []*core.Program{chain.prog}, []*core.Program{mat})
	r.set("stream.cpu_ratio", b.cpu/v.cpu, "ratio", fmt.Sprintf("streamed CPU %.2f ms / materialized %.2f ms", b.cpu, v.cpu))
	rep := chain.prog.StreamReport()
	if rep == nil || rep.MaterializedBytes == 0 {
		r.set("stream.mem_ratio", nan, "ratio", "the chain never streamed")
		return nil
	}
	r.set("stream.mem_ratio", float64(rep.PeakBytes)/float64(rep.MaterializedBytes), "ratio",
		fmt.Sprintf("peak %d B / materialized %d B", rep.PeakBytes, rep.MaterializedBytes))
	return nil
}
