package loopir

import (
	"fmt"
	"strconv"

	"arraycomp/internal/certify"
	"arraycomp/internal/deptest"
)

// Certification of parallel plans. The planner derived each schedule
// from closed-form distance vectors; the certifier re-derives the
// ground truth by brute force — enumerating the (clamped) iteration
// space, bucketing raw array accesses by the element they touch, and
// checking that every conflicting pair (at least one write, distinct
// iterations) is legal under the attached schedule's execution order:
//
//   - shard: no cross-iteration conflicts at all (chunk boundaries are
//     chosen at run time, so any conflict can straddle one);
//   - chains: conflicting iterations agree modulo the chain count;
//   - tile: conflicting points share a tile (tiles run concurrently
//     and unordered; within a tile execution is sequential);
//   - wavefront: conflicting points share a tile, or the earlier point
//     lies on a strictly earlier tile anti-diagonal (the barrier
//     orders diagonals). Per-row prefix statements execute with the
//     row's column-0 tile.

// planOccBudget caps enumerated accesses per scheduled loop, and
// planBucketCap the retained occurrences per element bucket.
const (
	planOccBudget = 1 << 18
	planBucketCap = 64
)

// CertifyPlans audits every parallel schedule the optimizer attached
// to p and returns the aggregated report.
func CertifyPlans(p *Program) *certify.Report {
	rep := certify.NewReport()
	o := &optimizer{prog: p}
	var walk func(stmts []Stmt)
	walk = func(stmts []Stmt) {
		for _, s := range stmts {
			switch x := s.(type) {
			case *Loop:
				if x.Par != nil {
					rep.Record(certifyPlan(o, x))
				}
				walk(x.Body)
			case *If:
				walk(x.Then)
				walk(x.Else)
			}
		}
	}
	walk(p.Stmts)
	return rep
}

// planOcc is one enumerated access occurrence.
type planOcc struct {
	i, j   int64 // loop variable values (j unused for 1-D)
	prefix bool
	write  bool
	elem   string
}

// certifyPlan checks one scheduled loop.
func certifyPlan(o *optimizer, l *Loop) certify.Certificate {
	claim := fmt.Sprintf("loop %s: %s schedule legal", l.Var, l.Par)
	skip := func(detail string) certify.Certificate {
		return certify.Certificate{Layer: "plan", Claim: claim, Status: certify.Skipped, Detail: detail}
	}
	switch l.Par.Kind {
	case ParShard, ParChains:
		acc, ok := o.collectParAccesses(l.Body)
		if !ok {
			return skip("accesses not collectible")
		}
		return checkPlan(claim, acc, 0, l, nil, l.Par)
	case ParTile, ParWavefront:
		inner := nest2D(l)
		if inner == nil {
			return skip("nest shape not recognized")
		}
		pre, okPre := o.collectParAccesses(l.Body[:len(l.Body)-1])
		body, okBody := o.collectParAccesses(inner.Body)
		if !okPre || !okBody {
			return skip("accesses not collectible")
		}
		return checkPlan(claim, append(pre, body...), len(pre), l, inner, l.Par)
	case ParMonoShard:
		// Legality is claim-conditional (monotone index array), not a
		// distance-vector fact; CertifyClaims audits the claim cover and
		// the runtime verifier discharges the claims themselves.
		return skip("mono-shard legality audited by the claims certifier")
	}
	return skip("unknown schedule kind")
}

// checkPlan enumerates the clamped iteration space and validates every
// conflict against the schedule. The first nPre accesses are per-row
// prefix accesses (2-D only; inner == nil means 1-D).
func checkPlan(claim string, acc []parAccess, nPre int, outer, inner *Loop, par *ParSchedule) certify.Certificate {
	if (par.Kind == ParTile || par.Kind == ParWavefront) && (par.TileI < 1 || par.TileJ < 1) {
		return certify.Certificate{
			Layer: "plan", Claim: claim, Status: certify.Falsified,
			Detail: fmt.Sprintf("degenerate tile extents %dx%d", par.TileI, par.TileJ),
		}
	}
	if par.Kind == ParChains && par.Chains < 2 {
		return certify.Certificate{
			Layer: "plan", Claim: claim, Status: certify.Falsified,
			Detail: fmt.Sprintf("degenerate chain count %d", par.Chains),
		}
	}
	for k := 0; k < nPre; k++ {
		acc[k].prefix = true
	}
	// Accesses to one array must agree on every variable other than the
	// scheduled loop variables; those enclosing contributions then
	// cancel out of element equality, and evaluating them as zero is
	// exact. Disagreement would make conflicts depend on the enclosing
	// iteration, which this pointwise check cannot cover.
	scheduled := map[string]bool{outer.Var: true}
	if inner != nil {
		scheduled[inner.Var] = true
	}
	ref := map[string]*parAccess{}
	for k := range acc {
		a := &acc[k]
		r, ok := ref[a.arr]
		if !ok {
			ref[a.arr] = a
			continue
		}
		for d := range a.subs {
			if d >= len(r.subs) {
				break
			}
			fa, fr := a.subs[d], r.subs[d]
			for v, cv := range fa.t {
				if !scheduled[v] && fr.t[v] != cv {
					return certify.Certificate{
						Layer: "plan", Claim: claim, Status: certify.Skipped,
						Detail: fmt.Sprintf("enclosing-variable coefficients differ on %s", a.arr),
					}
				}
			}
			for v, cv := range fr.t {
				if !scheduled[v] && fa.t[v] != cv {
					return certify.Certificate{
						Layer: "plan", Claim: claim, Status: certify.Skipped,
						Detail: fmt.Sprintf("enclosing-variable coefficients differ on %s", a.arr),
					}
				}
			}
		}
	}

	ni := tripCount(outer.From, outer.To, outer.Step)
	exhaustive := true
	if ni > certify.ShadowClamp {
		ni = certify.ShadowClamp
		exhaustive = false
	}
	var nj int64 = 1
	if inner != nil {
		nj = tripCount(inner.From, inner.To, inner.Step)
		if nj > certify.ShadowClamp {
			nj = certify.ShadowClamp
			exhaustive = false
		}
	}

	eval := func(a *parAccess, vi, vj int64) (string, bool) {
		key := a.arr
		for _, f := range a.subs {
			var s deptest.SatOps
			v := f.c
			for name, coeff := range f.t {
				switch {
				case name == outer.Var:
					v = s.Add(v, s.Mul(coeff, vi))
				case inner != nil && name == inner.Var:
					v = s.Add(v, s.Mul(coeff, vj))
				}
				// Enclosing variables cancel (verified above): skip.
			}
			if s.Overflowed {
				return "", false
			}
			key += fmt.Sprintf(",%d", v)
		}
		return key, true
	}

	// Bucket occurrences by element.
	buckets := map[string][]planOcc{}
	capped := false
	sat := false
	occCount := 0
	addOcc := func(a *parAccess, vi, vj int64) bool {
		elem, ok := eval(a, vi, vj)
		if !ok {
			sat = true
			return true
		}
		b := buckets[elem]
		if len(b) >= planBucketCap {
			capped = true
			return true
		}
		buckets[elem] = append(b, planOcc{i: vi, j: vj, prefix: a.prefix, write: a.write, elem: elem})
		occCount++
		return occCount <= planOccBudget
	}
enumLoop:
	for ki := int64(0); ki < ni; ki++ {
		vi := outer.From + ki*outer.Step
		for k := range acc {
			if !acc[k].prefix {
				continue
			}
			if !addOcc(&acc[k], vi, 0) {
				break enumLoop
			}
		}
		if inner == nil {
			for k := range acc {
				if acc[k].prefix {
					continue
				}
				if !addOcc(&acc[k], vi, 0) {
					break enumLoop
				}
			}
			continue
		}
		for kj := int64(0); kj < nj; kj++ {
			vj := inner.From + kj*inner.Step
			for k := range acc {
				if acc[k].prefix {
					continue
				}
				if !addOcc(&acc[k], vi, vj) {
					break enumLoop
				}
			}
		}
	}
	if occCount > planOccBudget {
		exhaustive = false
	}
	if capped || sat {
		exhaustive = false
	}

	// Tile coordinates (2-D kinds). Prefix occurrences sit in the
	// row's column-0 tile.
	tileOf := func(p planOcc) (int64, int64) {
		ti := (p.i - outer.From) / par.TileI
		if p.prefix {
			return ti, 0
		}
		return ti, (p.j - inner.From) / par.TileJ
	}
	// before reports sequential execution order of two distinct points.
	before := func(a, b planOcc) bool {
		if a.i != b.i {
			return a.i < b.i
		}
		if a.prefix != b.prefix {
			return a.prefix
		}
		return a.j < b.j
	}
	legal := func(a, b planOcc) bool {
		// Order the pair by sequential execution.
		if before(b, a) {
			a, b = b, a
		}
		switch par.Kind {
		case ParShard:
			return false
		case ParChains:
			return (a.i-b.i)%par.Chains == 0
		case ParTile:
			ai, aj := tileOf(a)
			bi, bj := tileOf(b)
			return ai == bi && aj == bj
		case ParWavefront:
			ai, aj := tileOf(a)
			bi, bj := tileOf(b)
			if ai == bi && aj == bj {
				return true
			}
			return ai+aj < bi+bj
		}
		return false
	}
	samePoint := func(a, b planOcc) bool {
		return a.i == b.i && a.j == b.j && a.prefix == b.prefix
	}
	for _, b := range buckets {
		for x := 0; x < len(b); x++ {
			for y := x + 1; y < len(b); y++ {
				p, q := b[x], b[y]
				if !p.write && !q.write {
					continue
				}
				if samePoint(p, q) {
					continue // one iteration executes sequentially
				}
				if !legal(p, q) {
					return certify.Certificate{
						Layer: "plan", Claim: claim, Status: certify.Falsified,
						Witness: []int64{p.i, p.j, q.i, q.j},
						Detail:  fmt.Sprintf("conflicting accesses of %s run unordered", p.elem),
					}
				}
			}
		}
	}
	return certify.Certificate{
		Layer: "plan", Claim: claim, Status: certify.Certified, Exhaustive: exhaustive,
	}
}

// Certification of block kernels. planBlock hoists a subtree only when
// none of its reads can see an element that the loop's own store
// writes earlier in the same block. The certifier replays that claim
// by enumeration, independently of the planner's distance arithmetic:
// over the loop's clamped iteration space it records the iterations
// that write each element, then falsifies the plan when a hoisted read
// at iteration t lands on an element written at an iteration t' with
// 0 < t − t' < blockLen — the only pairs whose order a block reverses.
// Enclosing loop variables must enter the store and the read with
// equal coefficients, so they cancel out of element equality.

// CertifyBlocks audits the block kernel of every loop in p that
// planBlock accepts.
func CertifyBlocks(p *Program) *certify.Report {
	rep := certify.NewReport()
	WalkLoops(p.Stmts, func(l *Loop) {
		if plan := planBlock(p, l); plan != nil {
			rep.Record(certifyBlock(l, plan))
		}
	})
	return rep
}

// certifyBlock replays one loop's block plan.
func certifyBlock(l *Loop, plan *blockPlan) certify.Certificate {
	a := plan.a
	claim := fmt.Sprintf("loop %s: block kernel's hoisted reads see no store of their block", l.Var)
	result := func(st certify.Status, witness []int64, detail string) certify.Certificate {
		return certify.Certificate{Layer: "block", Claim: claim, Status: st, Witness: witness, Detail: detail}
	}
	// The hoisted reads of the stored array: direct reads, and the
	// index reads of gathers.
	var reads [][]IntExpr
	gatherSelf := false
	var walk func(e VExpr)
	walk = func(e VExpr) {
		switch x := e.(type) {
		case *ARef:
			if g := gatherIndex(x); g != nil {
				gatherSelf = gatherSelf || x.Array == a.Array
				if g.Array == a.Array {
					reads = append(reads, g.Subs)
				}
			} else if x.Array == a.Array {
				reads = append(reads, x.Subs)
			}
		case *VBin:
			walk(x.L)
			walk(x.R)
		case *VNeg:
			walk(x.X)
		case *VCall:
			for _, arg := range x.Args {
				walk(arg)
			}
		}
	}
	for _, h := range plan.hoisted {
		walk(h)
	}
	if gatherSelf {
		return result(certify.Falsified, nil, fmt.Sprintf("a hoisted gather reads %s, which the loop stores", a.Array))
	}
	if len(reads) == 0 {
		return certify.Certificate{Layer: "block", Claim: claim, Status: certify.Certified, Exhaustive: true}
	}
	lins := func(subs []IntExpr) []*linForm {
		out := make([]*linForm, len(subs))
		for k, s := range subs {
			if out[k] = intLin(s); out[k] == nil {
				return nil
			}
		}
		return out
	}
	w := lins(a.Subs)
	if w == nil {
		return result(certify.Falsified, nil, fmt.Sprintf("a hoisted read of %s under an indirect store", a.Array))
	}
	rs := make([][]*linForm, len(reads))
	for k, subs := range reads {
		if rs[k] = lins(subs); rs[k] == nil || len(rs[k]) != len(w) {
			return result(certify.Skipped, nil, "non-affine hoisted read")
		}
		for d := range w {
			for _, pair := range [][2]*linForm{{rs[k][d], w[d]}, {w[d], rs[k][d]}} {
				for v, c := range pair[0].t {
					if v != l.Var && pair[1].t[v] != c {
						return result(certify.Skipped, nil, "enclosing-variable coefficients differ")
					}
				}
			}
		}
	}
	trip := tripCount(l.From, l.To, l.Step)
	n := min(trip, certify.ShadowClamp)
	exhaustive := trip <= certify.ShadowClamp
	// elem renders the subscripts of f at iteration t into key.
	var key []byte
	elem := func(f []*linForm, t int64) bool {
		var s deptest.SatOps
		key = key[:0]
		for k, d := range f {
			if k > 0 {
				key = append(key, ',')
			}
			key = strconv.AppendInt(key, s.Add(d.c, s.Mul(d.t[l.Var], s.Add(l.From, s.Mul(t, l.Step)))), 10)
		}
		return !s.Overflowed
	}
	writes := map[string][]int64{}
	for t := range n {
		if !elem(w, t) || len(writes[string(key)]) >= planBucketCap {
			exhaustive = false
			continue
		}
		writes[string(key)] = append(writes[string(key)], t)
	}
	occ := n
	for _, r := range rs {
		for t := range n {
			if !elem(r, t) {
				exhaustive = false
				continue
			}
			for _, tw := range writes[string(key)] {
				if d := t - tw; d > 0 && d < blockLen {
					return result(certify.Falsified, []int64{tw, t},
						fmt.Sprintf("hoisted read of %s[%s] at iteration %d runs before the store of iteration %d in its block", a.Array, key, t, tw))
				}
			}
			if occ++; occ > planOccBudget {
				exhaustive = false
				break
			}
		}
	}
	return certify.Certificate{Layer: "block", Claim: claim, Status: certify.Certified, Exhaustive: exhaustive}
}
