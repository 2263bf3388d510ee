package core

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"strings"
)

// Options configures Preprocess.
type Options struct {
	// Filename appears in diagnostics and generated omp.Loc calls.
	Filename string
	// OmpImport is the import path of the runtime API package; generated
	// code references it as `omp`.
	OmpImport string
	// Profile enables automatic instrumentation (gompcc -profile): every
	// function containing a pragma gets a source-located profiling span,
	// and func main gains the profiler lifecycle, so the built program
	// self-reports a flat profile naming user pragma locations — the
	// paper's "modifying the compiler to automatically instrument
	// applications" (Section VI).
	Profile bool
}

func (o *Options) defaults() {
	if o.Filename == "" {
		o.Filename = "src.go"
	}
	if o.OmpImport == "" {
		o.OmpImport = "gomp/omp"
	}
}

// passStep is the preprocessor pass: the paper's Listing 5 replaces "all
// parallel regions … before worksharing loops", then the remaining
// synchronisation directives. "Consequently, nested constructs do not
// require special handling in the preprocessor as long as they are of
// different types"; same-type nesting is handled here by replacing the
// innermost (highest-offset) pragma first and re-parsing.
type passStep int

const (
	stepTransform passStep = iota // tile, unroll — pure source loop rewrites
	stepParallel                  // parallel, parallel for
	stepWorkshare                 // for, sections, taskloop
	stepSync                      // single, master, critical, barrier, atomic, threadprivate, task*
	stepCancel                    // cancel, cancellation point
	stepDone
)

func stepOf(k DirKind) passStep {
	switch k {
	case DirTile, DirUnroll:
		// Loop transformations rewrite the nest itself, and every later
		// pass must see the generated loops — the OpenMP 5.1 rule that a
		// directive stacked above a transformation applies to the loop the
		// transformation generates. Innermost-first ordering within the
		// step makes stacked transformations compose the same way.
		return stepTransform
	case DirParallel, DirParallelFor:
		return stepParallel
	case DirFor, DirSections, DirTaskloop:
		return stepWorkshare
	case DirCancel, DirCancellationPoint:
		// Cancellation lowers to a `return` guard, which must be emitted
		// only after every enclosing construct of the earlier steps has
		// been outlined — both so the guard lands inside the right closure
		// and so the enclosing constructs' escaping-return checks (which
		// run on the original body text) never see it.
		return stepCancel
	default:
		return stepSync
	}
}

// Preprocess rewrites pragma-annotated Go source into plain Go that calls
// the omp runtime — the whole of Section III-B as one function. The result
// is gofmt-formatted. Source without pragmas is returned unchanged.
func Preprocess(src []byte, opts Options) ([]byte, error) {
	opts.defaults()
	// Whole-file validations that need every pragma still in place run
	// before the first rewrite consumes any of them. The byte scan keeps
	// ordered-free files (the common case) from paying an extra AST parse.
	if bytes.Contains(src, []byte("ordered")) {
		if px := (&pctx{opts: opts}); px.parse(src) == nil {
			if err := px.checkOrderedBindings(); err != nil {
				return nil, err
			}
		}
	}
	changed := false
	if opts.Profile {
		out, applied, err := instrumentProfile(src, opts)
		if err != nil {
			return nil, err
		}
		if applied {
			src = out
			changed = true
		}
	}
	for step := stepTransform; step != stepDone; {
		out, applied, err := applyOne(src, opts, step)
		if err != nil {
			return nil, err
		}
		if !applied {
			step++
			continue
		}
		src = out
		changed = true
	}
	if !changed {
		return src, nil
	}
	src, err := ensureImport(src, opts)
	if err != nil {
		return nil, err
	}
	formatted, err := format.Source(src)
	if err != nil {
		return nil, fmt.Errorf("preprocess: generated code does not parse: %v", err)
	}
	return formatted, nil
}

// pctx carries one parse of the working source through a single
// replacement.
type pctx struct {
	opts Options
	src  []byte
	fset *token.FileSet
	file *ast.File
	tf   *token.File

	// cancelUse memoizes usesCancellation (gen.go) for this parse.
	cancelUse *bool
	// pragmaList memoizes pragmas() for this parse: the source is immutable
	// within one pctx, and several generators consult the full list.
	pragmaList []pragma
	pragmaErr  error
	pragmaSet  bool
}

// pragma is the paper's "payload … contain[ing] the information required to
// perform such a replacement": the directive plus where its comment lives.
type pragma struct {
	d          *Directive
	start, end int // byte range of the comment in src
	line       int
}

func (px *pctx) parse(src []byte) error {
	px.src = src
	px.fset = token.NewFileSet()
	file, err := parser.ParseFile(px.fset, px.opts.Filename, src, parser.ParseComments)
	if err != nil {
		return fmt.Errorf("preprocess: %v", err)
	}
	px.file = file
	px.tf = px.fset.File(file.Pos())
	return nil
}

func (px *pctx) off(p token.Pos) int { return px.tf.Offset(p) }

func (px *pctx) text(from, to token.Pos) string {
	return string(px.src[px.off(from):px.off(to)])
}

// pragmas returns every pragma in the file, in source order.
func (px *pctx) pragmas() ([]pragma, error) {
	if px.pragmaSet {
		return px.pragmaList, px.pragmaErr
	}
	px.pragmaSet = true
	var out []pragma
	for _, cg := range px.file.Comments {
		for _, c := range cg.List {
			text, _, ok := Sentinel(c.Text)
			if !ok {
				continue
			}
			pos := px.fset.Position(c.Pos())
			d, err := ParseDirective(text)
			if err != nil {
				px.pragmaErr = fmt.Errorf("%s:%d: %v", px.opts.Filename, pos.Line, err)
				return nil, px.pragmaErr
			}
			out = append(out, pragma{
				d:     d,
				start: px.off(c.Pos()),
				end:   px.off(c.End()),
				line:  pos.Line,
			})
		}
	}
	px.pragmaList = out
	return out, nil
}

// applyOne finds the innermost unprocessed pragma of the current step,
// replaces it, and reports whether a replacement happened. One replacement
// per parse keeps every payload's offsets valid — the equivalent of the
// paper's «adjust source offset» bookkeeping.
func applyOne(src []byte, opts Options, step passStep) ([]byte, bool, error) {
	px := &pctx{opts: opts}
	if err := px.parse(src); err != nil {
		return nil, false, err
	}
	all, err := px.pragmas()
	if err != nil {
		return nil, false, err
	}
	var target *pragma
	for i := range all {
		p := &all[i]
		if p.d.Kind == DirSection {
			// Consumed by the enclosing sections replacement; a
			// leftover in the final step is an orphan.
			if step == stepSync {
				return nil, false, px.errf(p, "section directive outside a sections block")
			}
			continue
		}
		if stepOf(p.d.Kind) != step {
			continue
		}
		if target == nil || p.start > target.start {
			target = p
		}
	}
	if target == nil {
		return src, false, nil
	}
	eds, err := px.gen(target)
	if err != nil {
		return nil, false, err
	}
	return applyEdits(src, eds), true, nil
}

type edit struct {
	start, end int
	text       string
}

// applyEdits splices a set of disjoint edits, highest offset first so
// earlier offsets stay valid — the same bookkeeping as the paper's «adjust
// source offset», done by ordering instead of arithmetic.
func applyEdits(src []byte, eds []edit) []byte {
	for i := 0; i < len(eds); i++ { // insertion sort, descending by start
		for j := i; j > 0 && eds[j].start > eds[j-1].start; j-- {
			eds[j], eds[j-1] = eds[j-1], eds[j]
		}
	}
	for _, ed := range eds {
		out := make([]byte, 0, len(src)+len(ed.text))
		out = append(out, src[:ed.start]...)
		out = append(out, ed.text...)
		out = append(out, src[ed.end:]...)
		src = out
	}
	return src
}

func (px *pctx) errf(p *pragma, f string, args ...any) error {
	return fmt.Errorf("%s:%d: omp %s: %s", px.opts.Filename, p.line, p.d.Kind, fmt.Sprintf(f, args...))
}

// gen dispatches to the per-directive generators.
func (px *pctx) gen(p *pragma) ([]edit, error) {
	switch p.d.Kind {
	case DirParallel:
		return px.genParallel(p, p.d, "")
	case DirParallelFor:
		par, loop := DistributeParallelFor(p.d)
		// The fused form lowers to a parallel region whose body is the
		// loop, re-annotated for the worksharing pass — combined
		// constructs are by definition the nesting of their parts.
		return px.genParallel(p, par, "//omp "+loop.String())
	case DirFor:
		return px.genFor(p, p.d)
	case DirSections:
		return px.genSections(p, p.d)
	case DirSingle:
		return px.genSingle(p, p.d)
	case DirMaster:
		return px.genMaster(p)
	case DirCritical:
		return px.genCritical(p, p.d)
	case DirBarrier:
		return px.genBarrier(p)
	case DirAtomic:
		return px.genAtomic(p)
	case DirThreadPrivate:
		return px.genThreadPrivate(p, p.d)
	case DirTask:
		return px.genTask(p, p.d)
	case DirTaskwait:
		return px.genTaskwait(p)
	case DirTaskyield:
		return px.genTaskyield(p)
	case DirTaskgroup:
		return px.genTaskgroup(p, p.d)
	case DirTaskloop:
		return px.genTaskloop(p, p.d)
	case DirCancel:
		return px.genCancel(p, p.d)
	case DirCancellationPoint:
		return px.genCancellationPoint(p, p.d)
	case DirOrdered:
		return px.genOrdered(p)
	case DirTile:
		return px.genTile(p, p.d)
	case DirUnroll:
		return px.genUnroll(p, p.d)
	}
	return nil, px.errf(p, "no generator for directive")
}

// stmtAfter returns the statement that begins immediately after byte offset
// end — the construct a pragma applies to.
func (px *pctx) stmtAfter(end int) ast.Stmt {
	var best ast.Stmt
	bestOff := len(px.src) + 1
	ast.Inspect(px.file, func(n ast.Node) bool {
		s, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		off := px.off(s.Pos())
		if off >= end && off < bestOff {
			best, bestOff = s, off
		}
		return true
	})
	return best
}

// threadVar returns the in-scope *omp.Thread parameter name for a construct
// at the given offset, or "" when the construct is orphaned (no enclosing
// parallel region — the generated code then binds omp.Current()).
func (px *pctx) threadVar(off int) string {
	var name string
	ast.Inspect(px.file, func(n ast.Node) bool {
		var params *ast.FieldList
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncLit:
			params, body = fn.Type.Params, fn.Body
		case *ast.FuncDecl:
			params, body = fn.Type.Params, fn.Body
		default:
			return true
		}
		if body == nil || px.off(body.Pos()) > off || px.off(body.End()) <= off {
			return true // does not enclose the construct
		}
		for _, f := range params.List {
			star, ok := f.Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			sel, ok := star.X.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Thread" {
				continue
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "omp" {
				continue
			}
			for _, id := range f.Names {
				name = id.Name // innermost wins: keep walking
			}
		}
		return true
	})
	return name
}

// hasEscapingReturn reports whether body contains a return statement that
// is not wrapped in a nested function literal. OpenMP forbids branching out
// of a structured block; after outlining, such a return would silently
// change meaning, so it is rejected.
func hasEscapingReturn(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false // its returns are fine
		case *ast.ReturnStmt:
			found = true
		}
		return !found
	})
	return found
}

// ensureImport guarantees the file imports the configured OmpImport path
// under the name `omp`. An unrelated package that merely happens to be
// named omp does not count — generated omp.* calls must never silently bind
// to foreign code. Otherwise a second import declaration is appended after
// the package clause; gofmt folds it in.
//
// A file whose rewritten form never references the omp qualifier — possible
// since loop transformations lower to plain loops, not runtime calls — is
// left alone: an injected import would be unused and fail compilation.
func ensureImport(src []byte, opts Options) ([]byte, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, opts.Filename, src, 0)
	if err != nil {
		// The generated code does not parse; let the caller's gofmt pass
		// report it with its usual diagnostic.
		return src, nil
	}
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path != opts.OmpImport {
			continue
		}
		if imp.Name == nil || imp.Name.Name == "omp" {
			return src, nil
		}
	}
	usesOmp := false
	ast.Inspect(file, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && !usesOmp {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "omp" {
				usesOmp = true
			}
		}
		return !usesOmp
	})
	if !usesOmp {
		return src, nil
	}
	tf := fset.File(file.Pos())
	insertAt := tf.Offset(file.Name.End())
	decl := fmt.Sprintf("\n\nimport omp %q", opts.OmpImport)
	out := make([]byte, 0, len(src)+len(decl))
	out = append(out, src[:insertAt]...)
	out = append(out, decl...)
	out = append(out, src[insertAt:]...)
	return out, nil
}
