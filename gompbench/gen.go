package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// The build workload's input: a seeded Go module of annotated files. A
// file is pragma-dense (several directive templates), pragma-sparse (one)
// or pragma-free, and the templates cover the whole directive inventory
// the preprocessor lowers. Every template computes an integer checksum
// whose value does not depend on thread count, schedule or task order, so
// the untransformed program (pragmas are comments, so it is plain serial
// Go) is an exact reference for the transformed one.

// genFile is one generated source file.
type genFile struct {
	name  string
	funcs []string // checksum functions main calls, in order
	body  string
	salt  int // the rewritable constant
	dirs  int // directive lines in the file
	role  int // roleDense, roleSparse or roleFree
}

const (
	roleDense = iota
	roleSparse
	roleFree
)

// genModule is a generated module: its files plus main.go.
type genModule struct {
	files []*genFile
}

// Template parameters are drawn from the seed; each template returns a
// function body computing an int checksum. %[1]s is the function name,
// %[2]s the file's salt constant.
var templates = []struct {
	name string
	src  func(r *rand.Rand) string
}{
	{"pfor_reduce", func(r *rand.Rand) string {
		sched := []string{"static", "dynamic,%d", "guided,%d"}[r.Intn(3)]
		if strings.Contains(sched, "%d") {
			sched = fmt.Sprintf(sched, 1+r.Intn(64))
		}
		return fmt.Sprintf(`func %%[1]s() int {
	n := %d + %%[2]s
	sum := 0
	//omp parallel for reduction(+:sum) schedule(%s)
	for i := 0; i < n; i++ {
		sum += i*%d ^ (i >> 3)
	}
	return sum
}
`, 2000+r.Intn(20000), sched, 1+r.Intn(97))
	}},
	{"collapse", func(r *rand.Rand) string {
		return fmt.Sprintf(`func %%[1]s() int {
	ni, nj := %d, %d+%%[2]s%%%%7
	m := make([]int, ni*nj)
	//omp parallel for collapse(2) schedule(dynamic,%d)
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			m[i*nj+j] = i*31 + j*%d
		}
	}
	s := 0
	for k, v := range m {
		s += k ^ v
	}
	return s
}
`, 20+r.Intn(60), 20+r.Intn(60), 1+r.Intn(16), 1+r.Intn(13))
	}},
	{"tile", func(r *rand.Rand) string {
		return fmt.Sprintf(`func %%[1]s() int {
	n := %d + %%[2]s%%%%5
	c := make([]int, n*n)
	//omp parallel for collapse(2)
	//omp tile sizes(%d,%d)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c[i*n+j] = (i + 1) * (j + %d)
		}
	}
	s := 0
	for _, v := range c {
		s = s*3 + v
	}
	return s
}
`, 30+r.Intn(50), 4+r.Intn(12), 4+r.Intn(12), 1+r.Intn(9))
	}},
	{"tasks", func(r *rand.Rand) string {
		return fmt.Sprintf(`func %%[1]s() int {
	var a, b, c int
	//omp parallel
	{
		//omp single
		{
			//omp task depend(out:a)
			{
				a = %d + %%[2]s
			}
			//omp task depend(in:a) depend(out:b)
			{
				b = a * %d
			}
			//omp task depend(in:a,b) depend(inout:c)
			{
				c = a + b
			}
			//omp taskwait
		}
	}
	return c
}
`, 1+r.Intn(1000), 2+r.Intn(9))
	}},
	{"taskloop", func(r *rand.Rand) string {
		return fmt.Sprintf(`func %%[1]s() int {
	total := 0
	n := %d + %%[2]s
	//omp parallel
	{
		//omp single
		{
			//omp taskloop grainsize(%d)
			for i := 0; i < n; i++ {
				//omp atomic
				total += i %%%% %d
			}
		}
	}
	return total
}
`, 200+r.Intn(2000), 8+r.Intn(64), 3+r.Intn(40))
	}},
	{"single_critical_barrier", func(r *rand.Rand) string {
		return fmt.Sprintf(`func %%[1]s() int {
	const n = %d
	a := make([]int, n)
	singles, total := 0, 0
	//omp parallel
	{
		//omp single
		{
			singles += %%[2]s
		}
		//omp for schedule(guided,%d) nowait
		for i := 0; i < n; i++ {
			a[i] = i * %d
		}
		//omp barrier
		//omp critical
		{
			total++
		}
	}
	s := 0
	for _, v := range a {
		s += v
	}
	if total < 1 {
		return -1
	}
	return s + singles
}
`, 500+r.Intn(5000), 1+r.Intn(32), 1+r.Intn(11))
	}},
	{"cancel", func(r *rand.Rand) string {
		return fmt.Sprintf(`func %%[1]s() int {
	n := %d
	a := make([]int, n)
	a[(%d+%%[2]s)%%%%n] = 7
	found := 0
	//omp parallel for schedule(dynamic,%d)
	for i := 0; i < n; i++ {
		if a[i] == 7 {
			//omp atomic
			found++
			//omp cancel for
		}
		//omp cancellation point for
	}
	return found
}
`, 5000+r.Intn(50000), r.Intn(1<<20), 16+r.Intn(128))
	}},
}

// plainTemplate is the body of a pragma-free function.
func plainTemplate(r *rand.Rand) string {
	return fmt.Sprintf(`func %%[1]s() int {
	s := %%[2]s
	for i := 0; i < %d; i++ {
		s = s*%d + i
	}
	return s
}
`, 100+r.Intn(1000), 3+2*r.Intn(20))
}

var saltRE = regexp.MustCompile(`(?m)^const salt(\d+) = (\d+)$`)

// The module's mix of file roles is the repository's own: of the 18
// non-test Go programs under examples/ and cmd/gompcc/testdata, 5 carry
// two or more directives (pragma-dense), 2 carry one (pragma-sparse) and
// 11 none (pragma-free). Both the module and each cycle's edits follow
// these shares.
const (
	corpusFiles  = 18
	corpusDense  = 5
	corpusSparse = 2
)

// generateModule draws a module of nfiles files from seed. The mix and
// its layout are fixed — the corpus shares above of pragma-dense files
// (every template once, so every cold pass runs the whole directive
// inventory), pragma-sparse files (one template, each template equally
// often) and pragma-free files, spread evenly over the file order — and
// the seed draws the template order in dense files and every constant.
// The driver hands out contiguous blocks of files, so the layout sets its
// load balance; fixing it keeps the transform work the same for every
// seed: seeds vary the input, not the cost.
func generateModule(seed int64, nfiles int) *genModule {
	r := rand.New(rand.NewSource(seed))
	m := &genModule{}
	dense, sparse := nfiles*corpusDense/corpusFiles, nfiles*corpusSparse/corpusFiles
	step := 7 // spreads roles over the file order when coprime with nfiles
	for gcd(step, nfiles) != 1 {
		step++
	}
	for f := 0; f < nfiles; f++ {
		gf := &genFile{name: fmt.Sprintf("f%03d.go", f), salt: r.Intn(100)}
		var kinds []int
		switch slot := f * step % nfiles; {
		case slot < dense:
			gf.role, kinds = roleDense, r.Perm(len(templates))
		case slot < dense+sparse:
			gf.role, kinds = roleSparse, []int{(slot - dense) % len(templates)}
		default:
			gf.role = roleFree
		}
		var b strings.Builder
		fmt.Fprintf(&b, "package main\n\nconst salt%d = %d\n\n", f, gf.salt)
		salt := fmt.Sprintf("salt%d", f)
		for j, k := range kinds {
			fn := fmt.Sprintf("f%d_%d_%s", f, j, templates[k].name)
			fmt.Fprintf(&b, templates[k].src(r), fn, salt)
			b.WriteByte('\n')
			gf.funcs = append(gf.funcs, fn)
		}
		fn := fmt.Sprintf("f%d_plain", f)
		fmt.Fprintf(&b, plainTemplate(r), fn, salt)
		gf.funcs = append(gf.funcs, fn)
		gf.body = b.String()
		gf.dirs = strings.Count(gf.body, "\t//omp ")
		m.files = append(m.files, gf)
	}
	return m
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// directives is the number of directive lines across the module.
func (m *genModule) directives() int {
	n := 0
	for _, f := range m.files {
		n += f.dirs
	}
	return n
}

// pragmaFiles is the number of files carrying at least one directive.
func (m *genModule) pragmaFiles() int {
	n := 0
	for _, f := range m.files {
		if f.dirs > 0 {
			n++
		}
	}
	return n
}

// mainSource prints every checksum, one per line, in file order.
func (m *genModule) mainSource() string {
	var b strings.Builder
	b.WriteString("package main\n\nimport \"fmt\"\n\nfunc main() {\n")
	for _, f := range m.files {
		for _, fn := range f.funcs {
			fmt.Fprintf(&b, "\tfmt.Println(%q, %s())\n", fn, fn)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// goMod is the generated module's go.mod: it resolves gomp/omp from the
// repository root, which the transformed sources import.
func goMod(repoRoot string) string {
	return fmt.Sprintf("module benchgen\n\ngo 1.24\n\nrequire gomp v0.0.0\n\nreplace gomp => %s\n", repoRoot)
}

// write lays the module out under dir.
func (m *genModule) write(dir, repoRoot string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(goMod(repoRoot)), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(m.mainSource()), 0o644); err != nil {
		return err
	}
	for _, f := range m.files {
		if err := os.WriteFile(filepath.Join(dir, f.name), []byte(f.body), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// pickEdits draws n files to edit with the module's own mix of roles, so
// every cycle's warm pass has about the same work whichever files the
// seed picks.
func (m *genModule) pickEdits(r *rand.Rand, n int) []int {
	byRole := [3][]int{}
	for i, f := range m.files {
		byRole[f.role] = append(byRole[f.role], i)
	}
	want := [3]int{(2*n*corpusDense + corpusFiles) / (2 * corpusFiles), (2*n*corpusSparse + corpusFiles) / (2 * corpusFiles), 0}
	want[roleFree] = max(0, n-want[roleDense]-want[roleSparse])
	var out []int
	for role, idx := range byRole {
		for _, j := range r.Perm(len(idx))[:min(want[role], len(idx))] {
			out = append(out, idx[j])
		}
	}
	return out
}

// rewrite bumps the salt constant of the given files on disk, the edit
// that invalidates their cache entries and nothing else.
func (m *genModule) rewrite(dir string, idx []int) error {
	for _, i := range idx {
		f := m.files[i]
		f.salt = (f.salt + 1) % 100
		f.body = saltRE.ReplaceAllString(f.body, fmt.Sprintf("const salt${1} = %d", f.salt))
		if err := os.WriteFile(filepath.Join(dir, f.name), []byte(f.body), 0o644); err != nil {
			return err
		}
	}
	return nil
}
