// Package core implements the paper's primary contribution mapped to Go:
// OpenMP loop directives grafted onto a language that has no pragma
// mechanism.
//
// The paper (Kacs et al., 2024) adds pragmas to Zig as special comments —
// the same trick Fortran uses — and threads them through the Zig compiler in
// three stages; this package reproduces each stage over Go source:
//
//  1. Tokenisation (token.go): the sentinel ("//omp", the analog of Fortran's
//     !$omp) is recognised, then the rest of the pragma is tokenised as
//     ordinary code — option B of the paper's Figure 1. OpenMP keywords are
//     NOT reserved words: they are stored as identifier tokens and
//     disambiguated during parsing through a string→keyword-tag hash map and
//     an eatToken that accepts both ordinary and keyword tags, exactly the
//     design Section III-A describes (reserving them would break existing
//     code that uses `parallel` or `shared` as variable names).
//
//  2. Parsing (parse.go) into directive nodes whose clauses are checked
//     against the paper's language limits (validate.go). The Zig compiler
//     stores clause data in its AST's extra_data array of 32-bit integers
//     (Section III-A2): list clauses as index slices, and the scalar
//     clauses bit-packed, a 3-bit schedule kind beside a 29-bit chunk and a
//     4-bit collapse depth. Go's AST needs no such packing, so gomp keeps
//     clauses as plain fields and enforces the limits that packing implies
//     (chunk and tile size below 2^29, collapse at most 15, grainsize and
//     num_tasks below 2^30) in validate.go.
//
//  3. Preprocessing (preprocess.go and friends): a multi-pass source
//     rewriter (the paper's Listing 5) that replaces parallel regions first,
//     then worksharing loops, then synchronisation directives, splicing
//     generated Go that calls into the kmp/omp runtime — outlined region
//     bodies, loop-bound extraction from the for-statement header, shared/
//     private/firstprivate/reduction variable treatment, and CAS-loop
//     reductions.
//
// The pragma surface accepted, on a line comment immediately preceding the
// construct it applies to:
//
//	//omp parallel [private(a,b)] [firstprivate(c)] [shared(d)]
//	//              [default(shared|none)] [reduction(op:v,…)]
//	//              [num_threads(expr)] [if(expr)]
//	//omp for [schedule(kind[,chunk])] [collapse(n)] [nowait]
//	//        [private…] [firstprivate…] [lastprivate…] [reduction…]
//	//omp parallel for …          (fusion of the two)
//	//omp sections / //omp section
//	//omp single [nowait] / //omp master / //omp barrier
//	//omp critical[(name)] / //omp atomic / //omp threadprivate(v)
//	//omp task [private…] [firstprivate…] [shared…] [default…]
//	//         [if(expr)] [final(expr)] [untied]
//	//omp taskwait / //omp taskgroup
//	//omp taskloop [grainsize(n) | num_tasks(n)] [nogroup]
//	//             [private…] [firstprivate…] [shared…] [if…] [final…] [untied]
//
// The tasking directives (task, taskwait, taskgroup, taskloop) lower onto
// the work-stealing task runtime (internal/kmp/task.go): a task block is
// outlined into a deferred closure with firstprivate values captured by
// copy at creation, and a taskloop carves its canonical for statement into
// chunk tasks by grainsize/num_tasks.
package core
