// Pragma walkthrough: the paper's workflow end to end, inside one process.
// An annotated source file is pushed through the preprocessor (tokeniser →
// directive parser → multi-pass rewrite), the generated Go is printed, and
// the same computation is executed through the runtime to show the two
// agree.
//
//	go run ./examples/pragma
//
// To preprocess files on disk instead, use the CLI:
//
//	go run ./cmd/gompcc -stdout yourfile.go
package main

import (
	"fmt"

	"gomp/internal/core"
	"gomp/omp"
)

// annotated is the input program: plain Go plus the paper's special-comment
// pragmas. Note it is also valid *serial* Go — with the preprocessor
// bypassed, the comments are just comments, the same graceful degradation
// OpenMP pragmas have under a non-OpenMP compiler.
const annotated = `package main

import "fmt"

func main() {
	const n = 1 << 16
	sum := 0.0
	hist := make([]int, 8)
	//omp parallel for reduction(+:sum) schedule(guided,64) num_threads(4)
	for i := 0; i < n; i++ {
		sum += float64(i % 7)
	}
	//omp parallel num_threads(4)
	{
		//omp for schedule(static,1) nowait
		for b := 0; b < 8; b++ {
			hist[b] = b * b
		}
		//omp barrier
		//omp master
		{
			fmt.Println("histogram filled")
		}
	}
	fmt.Println(sum, hist)
}
`

func main() {
	fmt.Println("=== 1. directive front-end ===")
	// What the compiler sees for one pragma: tokens (keywords stay
	// identifiers!), then the parsed directive.
	text := "parallel for reduction(+:sum) schedule(guided,64) num_threads(4)"
	toks, err := core.Tokenize(text)
	if err != nil {
		panic(err)
	}
	fmt.Printf("tokens: %d (first: %v %v %v...)\n", len(toks), toks[0], toks[1], toks[2])
	d, err := core.ParseDirective(text)
	if err != nil {
		panic(err)
	}
	fmt.Printf("parsed: %s\n", d)

	fmt.Println("\n=== 2. preprocessed output ===")
	out, err := core.Preprocess([]byte(annotated), core.Options{Filename: "annotated.go"})
	if err != nil {
		panic(err)
	}
	fmt.Print(string(out))

	fmt.Println("\n=== 3. the same computation through the runtime ===")
	const n = 1 << 16
	sum := omp.NewFloat64Reduction(omp.ReduceSum, 0)
	omp.Parallel(func(t *omp.Thread) {
		local := sum.Identity()
		omp.For(t, n, func(i int64) { local += float64(i % 7) }, omp.Schedule(omp.Guided, 64))
		sum.Combine(local)
	}, omp.NumThreads(4))

	serial := 0.0
	for i := 0; i < n; i++ {
		serial += float64(i % 7)
	}
	fmt.Printf("parallel sum = %v, serial sum = %v, equal = %v\n",
		sum.Value(), serial, sum.Value() == serial)
}
