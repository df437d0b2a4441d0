package loopir

import (
	"fmt"
	"slices"
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

// Certification of block kernels. The certifier replays each plan by
// enumeration, independently of the planner's distance arithmetic,
// over the loop's first certify.ShadowClamp iterations. Enclosing loop
// variables must enter every access of an array the body stores with
// equal coefficients, so they cancel out of element equality.
//
//   - block and spine plans: it records the iterations that write each
//     element, then falsifies the plan when a hoisted read at
//     iteration t lands on an element written at an iteration t' with
//     0 < t − t' < blockLen — the only pairs whose order a block
//     reverses. A spine's carried leaf runs in element order and is
//     not hoisted.
//   - phase plans: it runs the body twice, in element order and in
//     the plan's phase order (all reads of a block against the state
//     before it, scalar reads from the claimed same-iteration or carry
//     vectors, then the stores statement by statement), tagging every
//     value with the statement and iteration that produced it. Every
//     value read, every final element and every scalar's final value
//     must carry the same tag in both runs.

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
	if plan.shape == ShapePhase {
		return certifyPhases(l, plan)
	}
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
	w := lins(a.Subs)
	if w == nil {
		return result(certify.Falsified, nil, fmt.Sprintf("a hoisted read of %s under an indirect store", a.Array))
	}
	rs := make([][]*linForm, len(reads))
	for k, subs := range reads {
		if rs[k] = lins(subs); rs[k] == nil || len(rs[k]) != len(w) {
			return result(certify.Skipped, nil, "non-affine hoisted read")
		}
		if !sameEnclosing(rs[k], w, l.Var) {
			return result(certify.Skipped, nil, "enclosing-variable coefficients differ")
		}
	}
	trip := tripCount(l.From, l.To, l.Step)
	n := min(trip, certify.ShadowClamp)
	exhaustive := trip <= n
	var key []byte
	elem := func(f []*linForm, t int64) bool {
		var ok bool
		key, ok = appendElem(key[:0], l, f, t)
		return ok
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

// lins is subs as affine forms, or nil when one is not affine.
func lins(subs []IntExpr) []*linForm {
	out := make([]*linForm, len(subs))
	for k, s := range subs {
		if out[k] = intLin(s); out[k] == nil {
			return nil
		}
	}
	return out
}

// sameEnclosing reports whether two accesses of one array give every
// variable but loopVar the same coefficient in each dimension, so that
// those variables cancel out of element equality.
func sameEnclosing(a, b []*linForm, loopVar string) bool {
	if len(a) != len(b) {
		return false
	}
	for d := range a {
		for _, pair := range [][2]*linForm{{a[d], b[d]}, {b[d], a[d]}} {
			for v, c := range pair[0].t {
				if v != loopVar && pair[1].t[v] != c {
					return false
				}
			}
		}
	}
	return true
}

// appendElem renders the element f addresses at iteration t of l, with
// enclosing variables at zero, onto key; false on overflow.
func appendElem(key []byte, l *Loop, f []*linForm, t int64) ([]byte, bool) {
	var s deptest.SatOps
	for k, d := range f {
		if k > 0 {
			key = append(key, ',')
		}
		key = strconv.AppendInt(key, s.Add(d.c, s.Mul(d.t[l.Var], s.Add(l.From, s.Mul(t, l.Step)))), 10)
	}
	return key, !s.Overflowed
}

// phaseAccess is one array access of a phase-plan replay.
type phaseAccess struct {
	arr string
	f   []*linForm
}

// certifyPhases replays a phase plan against element order.
func certifyPhases(l *Loop, plan *blockPlan) certify.Certificate {
	claim := fmt.Sprintf("loop %s: phase block of %d statements reads and leaves what element order does", l.Var, len(plan.body))
	result := func(st certify.Status, witness []int64, detail string) certify.Certificate {
		return certify.Certificate{Layer: "block", Claim: claim, Status: st, Witness: witness, Detail: detail}
	}
	nb := len(plan.body)
	stored := map[string]bool{}
	assigned := map[string]int{}
	for k, s := range plan.body {
		switch x := s.(type) {
		case *Assign:
			stored[x.Array] = true
		case *SetScalar:
			assigned[x.Name] = k
		}
	}
	// Per statement: its reads of stored arrays, the body scalars it
	// reads, and its store.
	reads := make([][]phaseAccess, nb)
	scalars := make([][]string, nb)
	stores := make([]*phaseAccess, nb)
	firstAccess := map[string][]*linForm{}
	enclosingOK := func(acc phaseAccess) bool {
		first, seen := firstAccess[acc.arr]
		if !seen {
			firstAccess[acc.arr] = acc.f
			return true
		}
		return sameEnclosing(acc.f, first, l.Var)
	}
	var bad string
	add := func(k int, arr string, subs []IntExpr) {
		if !stored[arr] || bad != "" {
			return
		}
		acc := phaseAccess{arr: arr, f: lins(subs)}
		switch {
		case acc.f == nil:
			bad = "non-affine access"
		case !enclosingOK(acc):
			bad = "enclosing-variable coefficients differ"
		}
		reads[k] = append(reads[k], acc)
	}
	var walk func(k int, e VExpr) bool
	walk = func(k int, e VExpr) bool {
		switch x := e.(type) {
		case *ARef:
			if g := gatherIndex(x); g != nil {
				if stored[x.Array] {
					return false
				}
				add(k, g.Array, g.Subs)
			} else {
				add(k, x.Array, x.Subs)
			}
		case *VScalar:
			if _, ok := assigned[x.Name]; ok {
				scalars[k] = append(scalars[k], x.Name)
			}
		case *VBin:
			return walk(k, x.L) && walk(k, x.R)
		case *VNeg:
			return walk(k, x.X)
		case *VCall:
			for _, arg := range x.Args {
				if !walk(k, arg) {
					return false
				}
			}
		}
		return true
	}
	for k, s := range plan.body {
		if !walk(k, stmtRhs(s)) {
			return result(certify.Falsified, []int64{int64(k)}, fmt.Sprintf("statement %d gathers through an array the loop stores", k))
		}
		if a, ok := s.(*Assign); ok {
			acc := phaseAccess{arr: a.Array, f: lins(a.Subs)}
			if acc.f == nil {
				return result(certify.Skipped, nil, "non-affine store")
			}
			if !enclosingOK(acc) {
				bad = "enclosing-variable coefficients differ"
			}
			stores[k] = &acc
		}
	}
	if bad != "" {
		return result(certify.Skipped, nil, bad)
	}

	trip := tripCount(l.From, l.To, l.Step)
	limit := min(int64(blockLen), trip)
	n := min(trip, certify.ShadowClamp)
	exhaustive := trip <= n
	// A value's tag: 0 for the state before the loop, else the
	// statement and iteration that produced it.
	tag := func(k int, t int64) int64 { return 1 + t*int64(nb) + int64(k) }
	var key []byte
	elemKey := func(acc *phaseAccess, t int64) (string, bool) {
		key = append(key[:0], acc.arr...)
		key = append(key, '[')
		var ok bool
		key, ok = appendElem(key, l, acc.f, t)
		return string(key), ok
	}
	carried := func(k int, name string) bool { return slices.Contains(plan.carry[k], name) }
	// Both runs record their reads in the same sequence.
	var elemReads, phaseReads []int64
	memE, memP := map[string]int64{}, map[string]int64{}
	scE, regP := map[string]int64{}, map[string]int64{}
	for t := range n {
		for k := range plan.body {
			for r := range reads[k] {
				kk, ok := elemKey(&reads[k][r], t)
				if !ok {
					return result(certify.Skipped, nil, "subscript overflow")
				}
				elemReads = append(elemReads, memE[kk])
			}
			for _, name := range scalars[k] {
				elemReads = append(elemReads, scE[name])
			}
			if st := stores[k]; st != nil {
				kk, ok := elemKey(st, t)
				if !ok {
					return result(certify.Skipped, nil, "subscript overflow")
				}
				memE[kk] = tag(k, t)
			} else {
				scE[plan.body[k].(*SetScalar).Name] = tag(k, t)
			}
		}
	}
	for b0 := int64(0); b0 < n; b0 += limit {
		m := min(limit, n-b0)
		for t := b0; t < b0+m; t++ {
			for k := range plan.body {
				for r := range reads[k] {
					kk, _ := elemKey(&reads[k][r], t)
					phaseReads = append(phaseReads, memP[kk])
				}
				for _, name := range scalars[k] {
					j := assigned[name]
					switch {
					case !carried(k, name):
						phaseReads = append(phaseReads, tag(j, t))
					case t == b0:
						phaseReads = append(phaseReads, regP[name])
					default:
						phaseReads = append(phaseReads, tag(j, t-1))
					}
				}
			}
		}
		for name, j := range assigned {
			regP[name] = tag(j, b0+m-1)
		}
		for k, st := range stores {
			for t := b0; st != nil && t < b0+m; t++ {
				kk, _ := elemKey(st, t)
				memP[kk] = tag(k, t)
			}
		}
	}
	describe := func(v int64) string {
		if v == 0 {
			return "the value before the loop"
		}
		return fmt.Sprintf("statement %d's value of iteration %d", (v-1)%int64(nb), (v-1)/int64(nb))
	}
	// readStmt is the statement of each read of one iteration.
	var readStmt []int
	for k := range plan.body {
		for range len(reads[k]) + len(scalars[k]) {
			readStmt = append(readStmt, k)
		}
	}
	for i, v := range elemReads {
		if w := phaseReads[i]; w != v {
			t, k := int64(i/len(readStmt)), readStmt[i%len(readStmt)]
			return result(certify.Falsified, []int64{t, int64(k)},
				fmt.Sprintf("statement %d at iteration %d reads %s in element order but %s in phase order", k, t, describe(v), describe(w)))
		}
	}
	for kk, v := range memE {
		if memP[kk] != v {
			return result(certify.Falsified, nil,
				fmt.Sprintf("%s ends as %s in element order but %s in phase order", kk, describe(v), describe(memP[kk])))
		}
	}
	for name, v := range scE {
		if regP[name] != v {
			return result(certify.Falsified, nil,
				fmt.Sprintf("scalar %s ends as %s in element order but %s in phase order", name, describe(v), describe(regP[name])))
		}
	}
	return certify.Certificate{Layer: "block", Claim: claim, Status: certify.Certified, Exhaustive: exhaustive}
}
