package core

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Per-directive code generation: the «perform … replacement» half of the
// paper's Listing 5. Every generator produces plain-text Go that calls the
// omp runtime; gofmt at the end of Preprocess normalises layout.

// schedConst maps the schedule enum to the omp constant
// generated code references.
func schedConst(s SchedEnum) string {
	switch s {
	case SchedStatic:
		return "omp.Static"
	case SchedDynamic:
		return "omp.Dynamic"
	case SchedGuided:
		return "omp.Guided"
	case SchedRuntime:
		return "omp.Runtime"
	case SchedAuto:
		return "omp.Auto"
	case SchedTrapezoid:
		return "omp.Trapezoidal"
	}
	return ""
}

func (px *pctx) locArg(p *pragma, region string) string {
	return fmt.Sprintf("omp.Loc(%q, %d, %q)", px.opts.Filename, p.line, region)
}

// usesCancellation reports whether the file carries any cancellation
// directive, memoized for the current parse. Only then do barrier sites
// double as lowered cancellation points (cancelGuard); files without cancel
// pragmas keep byte-identical generated code.
func (px *pctx) usesCancellation() bool {
	if px.cancelUse == nil {
		use := false
		if all, err := px.pragmas(); err == nil {
			for _, q := range all {
				if q.d.Kind == DirCancel || q.d.Kind == DirCancellationPoint {
					use = true
					break
				}
			}
		}
		px.cancelUse = &use
	}
	return *px.cancelUse
}

// cancelGuard returns the branch-out guard emitted after a barrier when the
// file uses cancellation: barriers (implicit and explicit) are cancellation
// points, so a thread released from a cancelled team's barrier must skip to
// the end of the enclosing construct instead of running the code behind it.
// The progressive unwinding — each construct's trailing guard pops one
// closure level — is what carries a `cancel parallel` encountered deep
// inside a worksharing loop out to the region's end.
//
// Orphaned constructs get no guard: their barrier sites sit directly in the
// user's function, where a bare return would exit (or fail to compile in)
// the caller; an orphaned construct binds to a team of one whose region
// ends with the function anyway.
func (px *pctx) cancelGuard(tvar string, orphan bool) string {
	if orphan || !px.usesCancellation() {
		return ""
	}
	return fmt.Sprintf("if omp.CancellationPoint(%s, omp.CancelParallel) {\nreturn\n}\n", tvar)
}

// shadowDecls emits the private/firstprivate lowering: a same-name local
// copy inside the construct. Both clauses copy — private's initial value is
// unspecified by OpenMP, so initialising it is permitted — and the explicit
// discard keeps Go's unused-variable rule satisfied, the exact challenge
// the paper reports for Zig ("all unused … variables … must be explicitly
// discarded").
func shadowDecls(vars ...[]string) []string {
	var out []string
	seen := map[string]bool{}
	for _, list := range vars {
		for _, v := range list {
			if seen[v] {
				continue
			}
			seen[v] = true
			out = append(out, fmt.Sprintf("%s := %s", v, v), fmt.Sprintf("_ = %s", v))
		}
	}
	return out
}

// checkDefaultNone enforces default(none): every free variable assigned in
// the body must be covered by a data-sharing clause.
func (px *pctx) checkDefaultNone(p *pragma, c *Clauses, body ast.Node, exempt ...string) error {
	listed := map[string]bool{}
	for _, l := range [][]string{c.Private, c.FirstPrivate, c.LastPrivate, c.Shared, exempt} {
		for _, v := range l {
			listed[v] = true
		}
	}
	for _, r := range c.Reductions {
		for _, v := range r.Vars {
			listed[v] = true
		}
	}
	for _, v := range assignedFreeIdents(body) {
		if !listed[v] {
			return px.errf(p, "default(none): variable %s is assigned but appears in no data-sharing clause", v)
		}
	}
	return nil
}

// ------------------------------------------------------------- parallel

// genParallel lowers `//omp parallel` (and, with innerPragma set, the
// region half of `//omp parallel for`). The region body is outlined into a
// closure passed to omp.Parallel — the fork-call path of Section III-B1;
// closure capture plays the role of the paper's marshalled shared-variable
// group, and region-level reductions become atomic cells created before the
// fork, combined by each thread, and read back after the join.
func (px *pctx) genParallel(p *pragma, d *Directive, innerPragma string) ([]edit, error) {
	c := &d.Clauses

	var bodyText string
	var bodyNode ast.Node
	var endOff int
	if innerPragma == "" {
		blk, ok := px.stmtAfter(p.end).(*ast.BlockStmt)
		if !ok {
			return nil, px.errf(p, "directive must immediately precede a { … } block")
		}
		bodyText = px.text(blk.Lbrace+1, blk.Rbrace)
		bodyNode = blk
		endOff = px.off(blk.End())
	} else {
		forStmt, ok := px.stmtAfter(p.end).(*ast.ForStmt)
		if !ok {
			return nil, px.errf(p, "directive must immediately precede a for statement")
		}
		bodyText = innerPragma + "\n" + px.text(forStmt.Pos(), forStmt.End())
		bodyNode = forStmt
		endOff = px.off(forStmt.End())
	}
	if hasEscapingReturn(bodyNode) {
		return nil, px.errf(p, "return inside a parallel region is not allowed (OpenMP forbids branching out of a structured block)")
	}
	if c.Default == DefaultNone {
		if err := px.checkDefaultNone(p, c, bodyNode); err != nil {
			return nil, err
		}
	}

	var pre, head, tail, post []string
	for _, r := range c.Reductions {
		for _, v := range r.Vars {
			cell := "__omp_red_" + v
			if r.Op == RedLogicalAnd || r.Op == RedLogicalOr {
				pre = append(pre, fmt.Sprintf("%s := omp.NewBoolReduction(%s, %s)", cell, r.Op.RuntimeName(), v))
			} else {
				pre = append(pre, fmt.Sprintf("%s := omp.NewReduction(%s, %s)", cell, r.Op.RuntimeName(), v))
			}
			// The thread-local copy shadows the shared variable for
			// the whole region, initialised to the operator's
			// identity as the standard requires (Section III-B1).
			head = append(head,
				fmt.Sprintf("%s := %s.Identity()", v, cell),
				fmt.Sprintf("_ = %s", v))
			tail = append(tail, fmt.Sprintf("%s.Combine(%s)", cell, v))
			post = append(post, fmt.Sprintf("%s = %s.Value()", v, cell))
		}
	}
	head = append(shadowDecls(c.Private, c.FirstPrivate), head...)

	args := []string{}
	if c.NumThreads != "" {
		args = append(args, fmt.Sprintf("omp.NumThreads(%s)", c.NumThreads))
	}
	if c.If != "" {
		args = append(args, fmt.Sprintf("omp.If(%s)", c.If))
	}
	args = append(args, px.locArg(p, d.Kind.String()))

	var b strings.Builder
	b.WriteString("{\n")
	for _, s := range pre {
		b.WriteString(s + "\n")
	}
	b.WriteString("omp.Parallel(func(__omp_t *omp.Thread) {\n")
	for _, s := range head {
		b.WriteString(s + "\n")
	}
	b.WriteString(bodyText)
	b.WriteString("\n")
	for _, s := range tail {
		b.WriteString(s + "\n")
	}
	b.WriteString("}, " + strings.Join(args, ", ") + ")\n")
	for _, s := range post {
		b.WriteString(s + "\n")
	}
	b.WriteString("}")
	return []edit{{start: p.start, end: endOff, text: b.String()}}, nil
}

// ------------------------------------------------------------------ for

// renameEntry is one pending identifier substitution in a body range.
type renameEntry struct {
	off, length int
	text        string
}

func spliceAll(src []byte, base int, entries []renameEntry) []byte {
	sort.Slice(entries, func(i, j int) bool { return entries[i].off > entries[j].off })
	for _, e := range entries {
		o := e.off - base
		out := make([]byte, 0, len(src)+len(e.text))
		out = append(out, src[:o]...)
		out = append(out, e.text...)
		out = append(out, src[o+e.length:]...)
		src = out
	}
	return src
}

// genFor lowers `//omp for`: bounds, increment and comparison operator are
// lifted from the for-statement header (Section III-B2), the iteration
// space is normalised to a trip count, and the body runs under
// omp.ForRange with the requested schedule. Reduction and lastprivate
// variables are renamed to per-thread temporaries inside the body — the
// variable rewriting of Section III-B3 — and folded back after the loop.
func (px *pctx) genFor(p *pragma, d *Directive) ([]edit, error) {
	c := &d.Clauses
	forStmt, ok := px.stmtAfter(p.end).(*ast.ForStmt)
	if !ok {
		return nil, px.errf(p, "directive must immediately precede a for statement")
	}
	levels := c.Collapse
	if levels < 1 {
		levels = 1
	}
	hs, err := extractCollapseNest(px.src, 0, px.tf, forStmt, levels)
	if err != nil {
		return nil, px.errf(p, "%v", err)
	}
	body := hs[len(hs)-1].Body
	if hasEscapingReturn(body) {
		return nil, px.errf(p, "return inside a worksharing loop is not allowed")
	}
	loopVars := map[string]bool{}
	for _, h := range hs {
		loopVars[h.Var] = true
	}
	if c.Default == DefaultNone {
		exempt := make([]string, 0, len(hs))
		for _, h := range hs {
			exempt = append(exempt, h.Var)
		}
		if err := px.checkDefaultNone(p, c, body, exempt...); err != nil {
			return nil, err
		}
	}

	// Variable rewriting: reduction and lastprivate variables get fresh
	// per-thread names inside the body. Shadow declarations that would
	// capture the new name are rejected — Go allows shadowing, Zig does
	// not, and the paper's identifier-equality rule is only sound
	// without it.
	var renames []renameEntry
	rename := func(v, newName string) error {
		if loopVars[v] {
			return px.errf(p, "loop variable %s cannot carry a reduction/lastprivate clause", v)
		}
		if declaresIdent(body, v) {
			return px.errf(p, "variable %s is redeclared inside the loop body; shadowing a rewritten variable is not supported", v)
		}
		for _, off := range identOffsets(px.tf, body, v) {
			renames = append(renames, renameEntry{off: off, length: len(v), text: newName})
		}
		return nil
	}

	var pre, combines []string
	for _, r := range c.Reductions {
		for _, v := range r.Vars {
			local := "__omp_red_" + v
			if err := rename(v, local); err != nil {
				return nil, err
			}
			if r.Op == RedLogicalAnd || r.Op == RedLogicalOr {
				ident := "true"
				if r.Op == RedLogicalOr {
					ident = "false"
				}
				pre = append(pre, fmt.Sprintf("%s := %s", local, ident))
			} else {
				pre = append(pre, fmt.Sprintf("%s := omp.ReduceIdentity(%s, %s)", local, r.Op.RuntimeName(), v))
			}
			pre = append(pre, fmt.Sprintf("_ = %s", local))
			switch r.Op {
			case RedMin:
				combines = append(combines, fmt.Sprintf(
					"omp.Critical(\"__omp_red\", func() { if %s < %s { %s = %s } })", local, v, v, local))
			case RedMax:
				combines = append(combines, fmt.Sprintf(
					"omp.Critical(\"__omp_red\", func() { if %s > %s { %s = %s } })", local, v, v, local))
			default:
				combines = append(combines, fmt.Sprintf(
					"omp.Critical(\"__omp_red\", func() { %s = %s %s %s })", v, v, r.Op.GoOperator(), local))
			}
		}
	}
	var lastAssigns []string
	for _, v := range c.LastPrivate {
		local := "__omp_lp_" + v
		if err := rename(v, local); err != nil {
			return nil, err
		}
		pre = append(pre, fmt.Sprintf("%s := %s", local, v), fmt.Sprintf("_ = %s", local))
		lastAssigns = append(lastAssigns, fmt.Sprintf("if __omp_k == __omp_trip-1 { %s = %s }", v, local))
	}

	bodyStart := px.off(body.Lbrace) + 1
	bodyText := string(spliceAll(
		append([]byte(nil), px.src[bodyStart:px.off(body.Rbrace)]...),
		bodyStart, renames))

	tvar := px.threadVar(p.start)
	orphan := tvar == ""
	if orphan {
		tvar = "__omp_t"
	}

	var b strings.Builder
	b.WriteString("{\n")
	if orphan {
		b.WriteString("__omp_t := omp.Current()\n")
	}
	// Bounds per nest level, evaluated once before any shadowing.
	for i, h := range hs {
		incl := "false"
		if h.Inclusive {
			incl = "true"
		}
		fmt.Fprintf(&b, "__omp_lb%d := int64(%s)\n", i, h.LB)
		fmt.Fprintf(&b, "__omp_st%d := int64(%s)\n", i, h.Step)
		fmt.Fprintf(&b, "__omp_trip%d := omp.TripCount(__omp_lb%d, int64(%s), __omp_st%d, %s)\n",
			i, i, h.UB, i, incl)
	}
	// Suffix products for collapse index reconstruction.
	for i := 0; i < len(hs)-1; i++ {
		terms := make([]string, 0, len(hs)-i-1)
		for j := i + 1; j < len(hs); j++ {
			terms = append(terms, fmt.Sprintf("__omp_trip%d", j))
		}
		fmt.Fprintf(&b, "__omp_suf%d := %s\n", i, strings.Join(terms, " * "))
	}
	if len(hs) == 1 {
		b.WriteString("__omp_trip := __omp_trip0\n")
	} else {
		fmt.Fprintf(&b, "__omp_trip := __omp_trip0 * __omp_suf0\n")
	}
	for _, s := range shadowDecls(c.Private, c.FirstPrivate) {
		b.WriteString(s + "\n")
	}
	for _, s := range pre {
		b.WriteString(s + "\n")
	}

	args := []string{"omp.NoWait()"} // barrier is emitted explicitly below
	if c.HasSchedule {
		mod := ""
		if c.SchedMod != SchedModNone {
			mod = ", " + c.SchedMod.RuntimeName()
		}
		args = append(args, fmt.Sprintf("omp.Schedule(%s, %d%s)", schedConst(c.Sched), c.Chunk, mod))
	}
	if c.Ordered {
		args = append(args, "omp.OrderedClause()")
	}
	args = append(args, px.locArg(p, "for"))

	fmt.Fprintf(&b, "omp.ForRange(%s, __omp_trip, func(__omp_clo, __omp_chi int64) {\n", tvar)
	b.WriteString("for __omp_k := __omp_clo; __omp_k < __omp_chi; __omp_k++ {\n")
	if len(hs) == 1 {
		h := hs[0]
		fmt.Fprintf(&b, "%s := int(__omp_lb0 + __omp_k*__omp_st0)\n_ = %s\n", h.Var, h.Var)
	} else {
		b.WriteString("__omp_r := __omp_k\n")
		for i, h := range hs {
			if i < len(hs)-1 {
				fmt.Fprintf(&b, "%s := int(__omp_lb%d + (__omp_r/__omp_suf%d)*__omp_st%d)\n_ = %s\n",
					h.Var, i, i, i, h.Var)
				fmt.Fprintf(&b, "__omp_r %%= __omp_suf%d\n", i)
			} else {
				fmt.Fprintf(&b, "%s := int(__omp_lb%d + __omp_r*__omp_st%d)\n_ = %s\n",
					h.Var, i, i, h.Var)
			}
		}
	}
	b.WriteString(bodyText)
	b.WriteString("\n")
	for _, s := range lastAssigns {
		b.WriteString(s + "\n")
	}
	b.WriteString("}\n")
	b.WriteString("}, " + strings.Join(args, ", ") + ")\n")
	for _, s := range combines {
		b.WriteString(s + "\n")
	}
	if !c.NoWait {
		fmt.Fprintf(&b, "omp.Barrier(%s)\n", tvar)
		b.WriteString(px.cancelGuard(tvar, orphan))
	}
	b.WriteString("}")
	return []edit{{start: p.start, end: px.off(forStmt.End()), text: b.String()}}, nil
}

// --------------------------------------------------------------- sections

// genSections lowers `//omp sections` over a block whose top-level
// statement groups are delimited by `//omp section` pragmas; the first
// group needs no marker.
func (px *pctx) genSections(p *pragma, d *Directive) ([]edit, error) {
	c := &d.Clauses
	blk, ok := px.stmtAfter(p.end).(*ast.BlockStmt)
	if !ok {
		return nil, px.errf(p, "directive must immediately precede a { … } block")
	}
	if hasEscapingReturn(blk) {
		return nil, px.errf(p, "return inside sections is not allowed")
	}
	all, err := px.pragmas()
	if err != nil {
		return nil, err
	}
	blkStart, blkEnd := px.off(blk.Lbrace)+1, px.off(blk.Rbrace)
	var cuts []pragma
	for _, q := range all {
		if q.d.Kind == DirSection && q.start >= blkStart && q.end <= blkEnd {
			cuts = append(cuts, q)
		}
	}
	var groups []string
	prev := blkStart
	for _, q := range cuts {
		groups = append(groups, string(px.src[prev:q.start]))
		prev = q.end
	}
	groups = append(groups, string(px.src[prev:blkEnd]))

	tvar := px.threadVar(p.start)
	orphan := tvar == ""
	if orphan {
		tvar = "__omp_t"
	}
	shadows := shadowDecls(c.Private, c.FirstPrivate)

	var b strings.Builder
	b.WriteString("{\n")
	if orphan {
		b.WriteString("__omp_t := omp.Current()\n")
	}
	fmt.Fprintf(&b, "omp.Sections(%s, []func(){\n", tvar)
	for _, g := range groups {
		b.WriteString("func() {\n")
		for _, s := range shadows {
			b.WriteString(s + "\n")
		}
		b.WriteString(g)
		b.WriteString("\n},\n")
	}
	b.WriteString("}")
	if c.NoWait {
		b.WriteString(", omp.NoWait()")
	}
	b.WriteString(", " + px.locArg(p, "sections") + ")\n")
	if !c.NoWait {
		b.WriteString(px.cancelGuard(tvar, orphan)) // the construct's implicit barrier is a cancellation point
	}
	b.WriteString("}")
	return []edit{{start: p.start, end: px.off(blk.End()), text: b.String()}}, nil
}

// ------------------------------------------------- single/master/critical

func (px *pctx) genSingle(p *pragma, d *Directive) ([]edit, error) {
	c := &d.Clauses
	blk, ok := px.stmtAfter(p.end).(*ast.BlockStmt)
	if !ok {
		return nil, px.errf(p, "directive must immediately precede a { … } block")
	}
	if hasEscapingReturn(blk) {
		return nil, px.errf(p, "return inside a single block is not allowed")
	}
	if len(c.CopyPrivate) > 1 {
		return nil, px.errf(p, "copyprivate supports a single variable in this implementation")
	}
	bodyText := px.text(blk.Lbrace+1, blk.Rbrace)
	tvar := px.threadVar(p.start)
	orphan := tvar == ""
	if orphan {
		tvar = "__omp_t"
	}
	shadows := shadowDecls(c.Private, c.FirstPrivate)

	var b strings.Builder
	b.WriteString("{\n")
	if orphan {
		b.WriteString("__omp_t := omp.Current()\n")
	}
	if len(c.CopyPrivate) == 1 {
		v := c.CopyPrivate[0]
		fmt.Fprintf(&b, "if %s.Single() {\n", tvar)
		for _, s := range shadows {
			b.WriteString(s + "\n")
		}
		b.WriteString(bodyText)
		fmt.Fprintf(&b, "\nomp.CopyPrivatePublish(%s, %s)\n}\n", tvar, v)
		fmt.Fprintf(&b, "omp.Barrier(%s)\n", tvar)
		fmt.Fprintf(&b, "omp.CopyPrivateAssign(%s, &%s)\n", tvar, v)
		if !c.NoWait {
			fmt.Fprintf(&b, "omp.Barrier(%s)\n", tvar)
			b.WriteString(px.cancelGuard(tvar, orphan))
		}
	} else {
		fmt.Fprintf(&b, "omp.Single(%s, func() {\n", tvar)
		for _, s := range shadows {
			b.WriteString(s + "\n")
		}
		b.WriteString(bodyText)
		b.WriteString("\n}")
		if c.NoWait {
			b.WriteString(", omp.NoWait()")
		}
		b.WriteString(")\n")
		if !c.NoWait {
			b.WriteString(px.cancelGuard(tvar, orphan)) // the construct's implicit barrier is a cancellation point
		}
	}
	b.WriteString("}")
	return []edit{{start: p.start, end: px.off(blk.End()), text: b.String()}}, nil
}

func (px *pctx) genMaster(p *pragma) ([]edit, error) {
	blk, ok := px.stmtAfter(p.end).(*ast.BlockStmt)
	if !ok {
		return nil, px.errf(p, "directive must immediately precede a { … } block")
	}
	if hasEscapingReturn(blk) {
		return nil, px.errf(p, "return inside a master block is not allowed")
	}
	tvar := px.threadVar(p.start)
	pre := ""
	if tvar == "" {
		tvar, pre = "__omp_t", "__omp_t := omp.Current()\n"
	}
	text := fmt.Sprintf("{\n%somp.Masked(%s, func() {\n%s\n})\n}",
		pre, tvar, px.text(blk.Lbrace+1, blk.Rbrace))
	return []edit{{start: p.start, end: px.off(blk.End()), text: text}}, nil
}

// checkOrderedBindings runs once over the original source, before any
// rewriting: every `//omp ordered` pragma whose innermost lexically
// enclosing worksharing-loop construct lacks the ordered clause is rejected
// — non-conforming OpenMP that would otherwise silently execute unordered.
// An ordered pragma enclosed by no loop construct at all is left alone:
// orphaned ordered regions in called functions bind dynamically, the spec's
// escape hatch a lexical check cannot see past.
func (px *pctx) checkOrderedBindings() error {
	all, err := px.pragmas()
	if err != nil {
		return nil // the main pass reports the parse problem with position info
	}
	type loopSpan struct {
		p      pragma
		s0, s1 int // pragma start .. end of the annotated for statement
	}
	var loops []loopSpan
	for _, r := range all {
		if r.d.Kind != DirFor && r.d.Kind != DirParallelFor {
			continue
		}
		if st := px.stmtAfter(r.end); st != nil {
			loops = append(loops, loopSpan{p: r, s0: r.start, s1: px.off(st.End())})
		}
	}
	for _, q := range all {
		if q.d.Kind != DirOrdered {
			continue
		}
		var inner *loopSpan
		for i := range loops {
			l := &loops[i]
			if q.start > l.s0 && q.end <= l.s1 && (inner == nil || l.s0 > inner.s0) {
				inner = l
			}
		}
		if inner != nil && !inner.p.d.Clauses.Ordered {
			return px.errf(&inner.p, "ordered region inside a worksharing loop that lacks the ordered clause")
		}
	}
	return nil
}

// genOrdered lowers `//omp ordered` over the following block: the body runs
// under omp.Ordered, which sequences it into iteration order against the
// enclosing worksharing loop's ordered ticket chain. The enclosing loop must
// carry the ordered clause; without one the runtime degenerates to direct
// execution, matching the spec's binding rules for orphaned constructs.
func (px *pctx) genOrdered(p *pragma) ([]edit, error) {
	blk, ok := px.stmtAfter(p.end).(*ast.BlockStmt)
	if !ok {
		return nil, px.errf(p, "directive must immediately precede a { … } block")
	}
	if hasEscapingReturn(blk) {
		return nil, px.errf(p, "return inside an ordered block is not allowed")
	}
	tvar := px.threadVar(p.start)
	pre := ""
	if tvar == "" {
		tvar, pre = "__omp_t", "__omp_t := omp.Current()\n"
	}
	text := fmt.Sprintf("{\n%somp.Ordered(%s, func() {\n%s\n})\n}",
		pre, tvar, px.text(blk.Lbrace+1, blk.Rbrace))
	return []edit{{start: p.start, end: px.off(blk.End()), text: text}}, nil
}

func (px *pctx) genCritical(p *pragma, d *Directive) ([]edit, error) {
	blk, ok := px.stmtAfter(p.end).(*ast.BlockStmt)
	if !ok {
		return nil, px.errf(p, "directive must immediately precede a { … } block")
	}
	if hasEscapingReturn(blk) {
		return nil, px.errf(p, "return inside a critical block is not allowed")
	}
	text := fmt.Sprintf("omp.Critical(%q, func() {\n%s\n})",
		d.Clauses.Name, px.text(blk.Lbrace+1, blk.Rbrace))
	return []edit{{start: p.start, end: px.off(blk.End()), text: text}}, nil
}

func (px *pctx) genBarrier(p *pragma) ([]edit, error) {
	tvar := px.threadVar(p.start)
	orphan := tvar == ""
	if orphan {
		tvar = "omp.Current()"
	}
	text := fmt.Sprintf("omp.Barrier(%s)", tvar)
	if g := px.cancelGuard(tvar, orphan); g != "" {
		text += "\n" + g
	}
	return []edit{{start: p.start, end: p.end, text: text}}, nil
}

// genAtomic serialises the following update statement. The lowering is a
// named critical section rather than a bare atomic instruction: without
// type information the preprocessor cannot choose an atomic cell, and the
// OpenMP atomic directive only promises atomicity, which mutual exclusion
// provides. Kernels that need true lock-free updates use the
// omp.AtomicInt64/AtomicFloat64 cells directly.
func (px *pctx) genAtomic(p *pragma) ([]edit, error) {
	st := px.stmtAfter(p.end)
	switch st.(type) {
	case *ast.AssignStmt, *ast.IncDecStmt:
	default:
		return nil, px.errf(p, "directive must immediately precede an assignment or increment statement")
	}
	text := fmt.Sprintf("omp.Critical(\"__omp_atomic\", func() { %s })",
		px.text(st.Pos(), st.End()))
	return []edit{{start: p.start, end: px.off(st.End()), text: text}}, nil
}

// ---------------------------------------------------------------- tasking

// taskOptionArgs renders the clause options shared by task and taskloop.
// Depend items lower to omp.DependIn("v", &v)-style options: the variable's
// address is the dependence address, its spelling the diagnostic name.
func taskOptionArgs(c *Clauses) []string {
	var args []string
	if c.If != "" {
		args = append(args, fmt.Sprintf("omp.If(%s)", c.If))
	}
	if c.Final != "" {
		args = append(args, fmt.Sprintf("omp.Final(%s)", c.Final))
	}
	if c.Untied {
		args = append(args, "omp.Untied()")
	}
	if c.Mergeable {
		args = append(args, "omp.Mergeable()")
	}
	if c.Grainsize > 0 {
		args = append(args, fmt.Sprintf("omp.Grainsize(%d)", c.Grainsize))
	}
	if c.NumTasks > 0 {
		args = append(args, fmt.Sprintf("omp.NumTasks(%d)", c.NumTasks))
	}
	if c.NoGroup {
		args = append(args, "omp.NoGroup()")
	}
	if c.Priority != "" {
		args = append(args, fmt.Sprintf("omp.Priority(%s)", c.Priority))
	}
	for _, dc := range c.Depends {
		for _, v := range dc.Vars {
			args = append(args, fmt.Sprintf("%s(%q, &%s)", dc.Mode.RuntimeName(), v, v))
		}
	}
	return args
}

// genTask lowers `//omp task` over the following block into an omp.Task call
// deferring the outlined body. Firstprivate values are copied into same-name
// locals outside the closure — capture by copy at task *creation* time, as
// the standard requires — while private variables shadow inside the deferred
// body. The closure receives the *executing* thread as a shadowing parameter
// so that nested directives inside the task body bind to whichever thread
// steals the task, not to its creator.
func (px *pctx) genTask(p *pragma, d *Directive) ([]edit, error) {
	c := &d.Clauses
	blk, ok := px.stmtAfter(p.end).(*ast.BlockStmt)
	if !ok {
		return nil, px.errf(p, "directive must immediately precede a { … } block")
	}
	if hasEscapingReturn(blk) {
		return nil, px.errf(p, "return inside a task is not allowed (OpenMP forbids branching out of a structured block)")
	}
	if c.Default == DefaultNone {
		if err := px.checkDefaultNone(p, c, blk); err != nil {
			return nil, err
		}
	}
	tvar := px.threadVar(p.start)
	orphan := tvar == ""
	if orphan {
		tvar = "__omp_t"
	}

	var b strings.Builder
	b.WriteString("{\n")
	if orphan {
		b.WriteString("__omp_t := omp.Current()\n")
	}
	for _, s := range shadowDecls(c.FirstPrivate) {
		b.WriteString(s + "\n") // creation-time copies the closure captures
	}
	fmt.Fprintf(&b, "omp.Task(%s, func(%s *omp.Thread) {\n", tvar, tvar)
	for _, s := range shadowDecls(c.Private) {
		b.WriteString(s + "\n")
	}
	b.WriteString(px.text(blk.Lbrace+1, blk.Rbrace))
	b.WriteString("\n}")
	for _, a := range append(taskOptionArgs(c), px.locArg(p, "task")) {
		b.WriteString(", " + a)
	}
	b.WriteString(")\n}")
	return []edit{{start: p.start, end: px.off(blk.End()), text: b.String()}}, nil
}

// genTaskwait lowers the standalone `//omp taskwait` directive.
func (px *pctx) genTaskwait(p *pragma) ([]edit, error) {
	tvar := px.threadVar(p.start)
	if tvar == "" {
		tvar = "omp.Current()"
	}
	return []edit{{start: p.start, end: p.end, text: fmt.Sprintf("omp.Taskwait(%s)", tvar)}}, nil
}

// genTaskyield lowers the standalone `//omp taskyield` directive: a task
// scheduling point at which the executing thread may pick up another ready
// task before resuming.
func (px *pctx) genTaskyield(p *pragma) ([]edit, error) {
	tvar := px.threadVar(p.start)
	if tvar == "" {
		tvar = "omp.Current()"
	}
	return []edit{{start: p.start, end: p.end, text: fmt.Sprintf("omp.Taskyield(%s)", tvar)}}, nil
}

// genTaskgroup lowers `//omp taskgroup`: the block runs on the encountering
// thread, then the thread waits for every descendant task spawned inside.
func (px *pctx) genTaskgroup(p *pragma, d *Directive) ([]edit, error) {
	blk, ok := px.stmtAfter(p.end).(*ast.BlockStmt)
	if !ok {
		return nil, px.errf(p, "directive must immediately precede a { … } block")
	}
	if hasEscapingReturn(blk) {
		return nil, px.errf(p, "return inside a taskgroup is not allowed")
	}
	tvar := px.threadVar(p.start)
	pre := ""
	if tvar == "" {
		tvar, pre = "__omp_t", "__omp_t := omp.Current()\n"
	}
	text := fmt.Sprintf("{\n%somp.Taskgroup(%s, func() {\n%s\n}, %s)\n}",
		pre, tvar, px.text(blk.Lbrace+1, blk.Rbrace), px.locArg(p, "taskgroup"))
	return []edit{{start: p.start, end: px.off(blk.End()), text: text}}, nil
}

// genTaskloop lowers `//omp taskloop`: the canonical for statement is
// normalised to a trip count exactly as genFor does, but the iteration space
// is carved into explicit tasks by grainsize/num_tasks instead of being
// dispatched to the team — the second, chunk-granular lowering strategy for
// loops. The chunk closure receives the executing thread (tasks migrate
// between threads), and unless nogroup is present the encountering thread
// waits for all chunks under an implicit taskgroup.
func (px *pctx) genTaskloop(p *pragma, d *Directive) ([]edit, error) {
	c := &d.Clauses
	forStmt, ok := px.stmtAfter(p.end).(*ast.ForStmt)
	if !ok {
		return nil, px.errf(p, "directive must immediately precede a for statement")
	}
	hs, err := extractCollapseNest(px.src, 0, px.tf, forStmt, 1)
	if err != nil {
		return nil, px.errf(p, "%v", err)
	}
	h := hs[0]
	body := h.Body
	if hasEscapingReturn(body) {
		return nil, px.errf(p, "return inside a taskloop is not allowed")
	}
	if c.Default == DefaultNone {
		if err := px.checkDefaultNone(p, c, body, h.Var); err != nil {
			return nil, err
		}
	}
	tvar := px.threadVar(p.start)
	orphan := tvar == ""
	if orphan {
		tvar = "__omp_t"
	}

	var b strings.Builder
	b.WriteString("{\n")
	if orphan {
		b.WriteString("__omp_t := omp.Current()\n")
	}
	incl := "false"
	if h.Inclusive {
		incl = "true"
	}
	fmt.Fprintf(&b, "__omp_lb0 := int64(%s)\n", h.LB)
	fmt.Fprintf(&b, "__omp_st0 := int64(%s)\n", h.Step)
	fmt.Fprintf(&b, "__omp_trip := omp.TripCount(__omp_lb0, int64(%s), __omp_st0, %s)\n", h.UB, incl)
	for _, s := range shadowDecls(c.FirstPrivate) {
		b.WriteString(s + "\n") // creation-time snapshot
	}
	fmt.Fprintf(&b, "omp.Taskloop(%s, __omp_trip, func(%s *omp.Thread, __omp_clo, __omp_chi int64) {\n", tvar, tvar)
	// Per-task copies: each chunk task privatises from the snapshot.
	for _, s := range shadowDecls(c.Private, c.FirstPrivate) {
		b.WriteString(s + "\n")
	}
	b.WriteString("for __omp_k := __omp_clo; __omp_k < __omp_chi; __omp_k++ {\n")
	fmt.Fprintf(&b, "%s := int(__omp_lb0 + __omp_k*__omp_st0)\n_ = %s\n", h.Var, h.Var)
	b.WriteString(px.text(body.Lbrace+1, body.Rbrace))
	b.WriteString("\n}\n}")
	for _, a := range append(taskOptionArgs(c), px.locArg(p, "taskloop")) {
		b.WriteString(", " + a)
	}
	b.WriteString(")\n}")
	return []edit{{start: p.start, end: px.off(forStmt.End()), text: b.String()}}, nil
}

// ----------------------------------------------------------- cancellation

// genCancel lowers the standalone `//omp cancel {parallel|for|taskgroup}`
// directive: omp.Cancel activates cancellation and reports whether the
// encountering thread must branch to the end of the construct, which the
// generated guard performs with a bare return — every outlined construct
// body (parallel region closure, worksharing chunk closure, task body) is a
// niladic function, so the return exits exactly the innermost construct.
// An if clause gates activation, short-circuiting before the runtime call
// as the standard's `cancel ... if(expr)` requires — but a cancel region is
// itself a cancellation point regardless of the clause (OpenMP 5.2 §11.5),
// so the false branch still consults CancellationPoint: a thread whose
// condition is false must still honour cancellation another thread already
// activated.
//
// The directive must be lexically inside a construct that carries a thread
// context: a cancel with no enclosing *omp.Thread cannot know which team to
// cancel (OpenMP's "innermost enclosing region" does not exist), so it is a
// preprocessing error rather than a silent no-op.
func (px *pctx) genCancel(p *pragma, d *Directive) ([]edit, error) {
	tvar := px.threadVar(p.start)
	if tvar == "" {
		return nil, px.errf(p, "cancel %s outside a parallel region: no enclosing construct provides a thread context", d.Clauses.Cancel)
	}
	rt := d.Clauses.Cancel.RuntimeName()
	cond := fmt.Sprintf("omp.Cancel(%s, %s)", tvar, rt)
	if c := d.Clauses.If; c != "" {
		cond = fmt.Sprintf("((%s) && %s) || omp.CancellationPoint(%s, %s)", c, cond, tvar, rt)
	}
	text := fmt.Sprintf("if %s {\nreturn\n}", cond)
	return []edit{{start: p.start, end: p.end, text: text}}, nil
}

// genCancellationPoint lowers `//omp cancellation point {parallel|for|
// taskgroup}` to the matching branch-out guard around omp.CancellationPoint.
func (px *pctx) genCancellationPoint(p *pragma, d *Directive) ([]edit, error) {
	tvar := px.threadVar(p.start)
	if tvar == "" {
		return nil, px.errf(p, "cancellation point %s outside a parallel region: no enclosing construct provides a thread context", d.Clauses.Cancel)
	}
	text := fmt.Sprintf("if omp.CancellationPoint(%s, %s) {\nreturn\n}",
		tvar, d.Clauses.Cancel.RuntimeName())
	return []edit{{start: p.start, end: p.end, text: text}}, nil
}

// ---------------------------------------------------------- threadprivate

// genThreadPrivate rewrites package-level variables to per-thread storage:
// `var x T` becomes a ThreadPrivate[T] cell and every use of x in the file
// becomes an accessor call. Requires an explicit type on the declaration
// (the preprocessor has no type inference — the same "lack of semantic
// context" constraint the paper works under).
func (px *pctx) genThreadPrivate(p *pragma, d *Directive) ([]edit, error) {
	eds := []edit{{start: p.start, end: p.end, text: ""}} // drop the pragma

	for _, v := range d.Clauses.ThreadPrivateVars {
		var spec *ast.ValueSpec
		var declRange [2]int
		for _, decl := range px.file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, s := range gd.Specs {
				vs := s.(*ast.ValueSpec)
				for _, name := range vs.Names {
					if name.Name == v {
						if len(gd.Specs) != 1 || len(vs.Names) != 1 {
							return nil, px.errf(p, "threadprivate variable %s must be declared alone (one var per declaration)", v)
						}
						spec = vs
						declRange = [2]int{px.off(gd.Pos()), px.off(gd.End())}
					}
				}
			}
		}
		if spec == nil {
			return nil, px.errf(p, "threadprivate variable %s has no package-level var declaration in this file", v)
		}
		if spec.Type == nil {
			return nil, px.errf(p, "threadprivate variable %s needs an explicit type on its declaration", v)
		}
		for _, fd := range px.file.Decls {
			if fn, ok := fd.(*ast.FuncDecl); ok && fn.Body != nil && declaresIdent(fn.Body, v) {
				return nil, px.errf(p, "threadprivate variable %s is shadowed inside %s; shadowing is not supported", v, fn.Name.Name)
			}
		}

		typeText := px.text(spec.Type.Pos(), spec.Type.End())
		cell := "__omp_tp_" + v
		initFn := "nil"
		if len(spec.Values) == 1 {
			initFn = fmt.Sprintf("func() *%s { var __omp_v %s = %s; return &__omp_v }",
				typeText, typeText, px.text(spec.Values[0].Pos(), spec.Values[0].End()))
		} else if len(spec.Values) > 1 {
			return nil, px.errf(p, "threadprivate variable %s: multi-value declarations are not supported", v)
		}
		eds = append(eds, edit{
			start: declRange[0], end: declRange[1],
			text: fmt.Sprintf("var %s = omp.NewThreadPrivate[%s](%s)", cell, typeText, initFn),
		})

		access := fmt.Sprintf("(*%s.Get(omp.Current()))", cell)
		for _, off := range identOffsets(px.tf, px.file, v) {
			if off >= declRange[0] && off < declRange[1] {
				continue // the declaration itself is being replaced
			}
			eds = append(eds, edit{start: off, end: off + len(v), text: access})
		}
	}
	return eds, nil
}
