package score_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The structure gates (TestGate*) hold shapes no behaviour test can see.
// Each names a design the code once had that decided the same bit for bit
// as the one that replaced it, and cost more or kept a second copy of one
// rule, so a change that brings it back passes every other test. A gate
// reads the parsed source: identifiers, selectors, calls, declarations,
// struct fields and string literals, never comments, so a word in a comment
// is not a violation. A gate whose subject (the file, function, method or
// struct its clause reads) is gone fails rather than holding of nothing.
// When a gate fails, change the code, not the gate; only a change that
// deletes a gate's subject drops the clause that reads it.

// srcFile is one parsed Go file of the main module.
type srcFile struct {
	path string // slash-separated, relative to the module root
	test bool   // a _test.go file
	ast  *ast.File
}

var (
	srcOnce sync.Once
	srcFset = token.NewFileSet()
	srcAll  []*srcFile
	srcErr  error
)

// moduleSource parses every Go file of the main module once per test
// binary: the root package, cmd/, examples/ and internal/, tests included,
// whatever their build constraints (the scorecheck-only files are read like
// any other). bench/ is a module of its own, testdata/ holds no package,
// and this file is skipped: its string literals are the gates' patterns.
func moduleSource(t *testing.T) []*srcFile {
	t.Helper()
	srcOnce.Do(func() {
		srcErr = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			p = filepath.ToSlash(p)
			name := d.Name()
			if d.IsDir() {
				if p != "." && (p == "bench" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(name, ".go") || p == "structure_test.go" {
				return nil
			}
			f, err := parser.ParseFile(srcFset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			srcAll = append(srcAll, &srcFile{p, strings.HasSuffix(name, "_test.go"), f})
			return nil
		})
	})
	if srcErr != nil {
		t.Fatal(srcErr)
	}
	return srcAll
}

// srcIn returns the files of directory dir (dir/*.go), with or without its
// tests, and fails when there are none.
func srcIn(t *testing.T, dir string, tests bool) []*srcFile {
	t.Helper()
	return srcWhere(t, dir, tests, func(p string) bool { return path.Dir(p) == dir })
}

// srcUnder is srcIn over dir and every directory below it; "." is the
// module.
func srcUnder(t *testing.T, dir string, tests bool) []*srcFile {
	t.Helper()
	return srcWhere(t, dir, tests, func(p string) bool { return dir == "." || strings.HasPrefix(p, dir+"/") })
}

// srcWhere returns the files, with or without tests, whose path keep
// accepts, and fails when there are none; what names them.
func srcWhere(t *testing.T, what string, tests bool, keep func(string) bool) []*srcFile {
	t.Helper()
	var out []*srcFile
	for _, f := range moduleSource(t) {
		if (tests || !f.test) && keep(f.path) {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no Go files in %s; the gate reads them", what)
	}
	return out
}

// srcAt returns the file at p, failing when there is none.
func srcAt(t *testing.T, p string) *srcFile {
	t.Helper()
	return srcWhere(t, p, true, func(q string) bool { return q == p })[0]
}

func at(n ast.Node) string { return srcFset.Position(n.Pos()).String() }

// find lists the nodes of type N under root that keep accepts, in source
// order.
func find[N ast.Node](root ast.Node, keep func(N) bool) []N {
	var out []N
	ast.Inspect(root, func(n ast.Node) bool {
		if m, ok := n.(N); ok && keep(m) {
			out = append(out, m)
		}
		return true
	})
	return out
}

// recvType is the name of fd's receiver type, "" for a function.
func recvType(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	x := fd.Recv.List[0].Type
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	switch g := x.(type) {
	case *ast.IndexExpr:
		x = g.X
	case *ast.IndexListExpr:
		x = g.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// funcs lists the functions of files declared on receiver type recv ("" for
// plain functions) whose name matches re.
func funcs(files []*srcFile, recv, re string) []*ast.FuncDecl {
	pat := regexp.MustCompile(re)
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && recvType(fd) == recv && pat.MatchString(fd.Name.Name) {
				out = append(out, fd)
			}
		}
	}
	return out
}

// method returns f's declaration of method name on recv, failing when f
// declares none.
func method(t *testing.T, f *srcFile, recv, name string) *ast.FuncDecl {
	t.Helper()
	for _, fd := range funcs([]*srcFile{f}, recv, "^"+name+"$") {
		if fd.Body != nil {
			return fd
		}
	}
	t.Fatalf("%s: no method (%s).%s; the gate reads it", f.path, recv, name)
	return nil
}

// typeSpecs lists the type declarations of files whose name matches re.
func typeSpecs(files []*srcFile, re string) []*ast.TypeSpec {
	pat := regexp.MustCompile(re)
	var out []*ast.TypeSpec
	for _, f := range files {
		out = append(out, find(f.ast, func(s *ast.TypeSpec) bool { return pat.MatchString(s.Name.Name) })...)
	}
	return out
}

// typeSpec returns f's declaration of type name, failing when there is none.
func typeSpec(t *testing.T, f *srcFile, name string) *ast.TypeSpec {
	t.Helper()
	if s := typeSpecs([]*srcFile{f}, "^"+name+"$"); len(s) > 0 {
		return s[0]
	}
	t.Fatalf("%s: no type %s; the gate reads it", f.path, name)
	return nil
}

// structType returns f's struct type name, failing when there is none.
func structType(t *testing.T, f *srcFile, name string) *ast.StructType {
	t.Helper()
	st, ok := typeSpec(t, f, name).Type.(*ast.StructType)
	if !ok {
		t.Fatalf("%s: type %s is not a struct; the gate reads its fields", f.path, name)
	}
	return st
}

// fieldNames lists the names a struct declares, an embedded field's type
// name included.
func fieldNames(st *ast.StructType) []*ast.Ident {
	var out []*ast.Ident
	for _, fl := range st.Fields.List {
		if len(fl.Names) > 0 {
			out = append(out, fl.Names...)
			continue
		}
		x := fl.Type
		if s, ok := x.(*ast.StarExpr); ok {
			x = s.X
		}
		switch e := x.(type) {
		case *ast.Ident:
			out = append(out, e)
		case *ast.SelectorExpr:
			out = append(out, e.Sel)
		}
	}
	return out
}

func exprs(list []ast.Expr) string {
	s := make([]string, len(list))
	for i, x := range list {
		s[i] = types.ExprString(x)
	}
	return strings.Join(s, ", ")
}

func callText(c *ast.CallExpr) string {
	if len(c.Args) == 0 {
		return types.ExprString(c.Fun) + "()"
	}
	return types.ExprString(c.Fun) + "("
}

// eachTerm hands fn every term under root, in source order: an identifier,
// a selector (x.f), a call ("f(", or "f()" with no arguments), a declared
// function's name ("f("), a composite literal's type ("T{") and a string
// literal as written, quotes included.
func eachTerm(root ast.Node, fn func(n ast.Node, text string)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			fn(n, n.Name)
		case *ast.SelectorExpr:
			fn(n, types.ExprString(n))
		case *ast.CallExpr:
			fn(n, callText(n))
		case *ast.FuncDecl:
			fn(n.Name, n.Name.Name+"(")
		case *ast.CompositeLit:
			if n.Type != nil {
				fn(n, types.ExprString(n.Type)+"{")
			}
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				fn(n, n.Value)
			}
		}
		return true
	})
}

// forbidIn reports every term under root that re matches, once: the terms
// inside a reported one are not reported again.
func forbidIn(t *testing.T, root ast.Node, re, rule string) {
	t.Helper()
	pat := regexp.MustCompile(re)
	var in ast.Node
	var hits []string
	eachTerm(root, func(n ast.Node, text string) {
		if in != nil && within(n, in) || !pat.MatchString(text) {
			return
		}
		in = n
		hits = append(hits, at(n)+": "+text)
	})
	for _, h := range hits {
		t.Errorf("%s: %s", h, rule)
	}
}

// forbid is forbidIn over files.
func forbid(t *testing.T, files []*srcFile, re, rule string) {
	t.Helper()
	for _, f := range files {
		forbidIn(t, f.ast, re, rule)
	}
}

// calls lists the calls under root whose term (see eachTerm) re matches.
func calls(root ast.Node, re string) []*ast.CallExpr {
	pat := regexp.MustCompile(re)
	return find(root, func(c *ast.CallExpr) bool { return pat.MatchString(callText(c)) })
}

// ifs lists the if statements under root, with no init statement, whose
// condition reads cond.
func ifs(root ast.Node, cond string) []*ast.IfStmt {
	return find(root, func(s *ast.IfStmt) bool { return s.Init == nil && types.ExprString(s.Cond) == cond })
}

// assigns lists the assignment statements of root's blocks that read text
// ("a, b := f(x)"), each with the statement after it in its block (nil
// when it is the last).
func assigns(root ast.Node, text string) [][2]ast.Stmt {
	var out [][2]ast.Stmt
	ast.Inspect(root, func(n ast.Node) bool {
		var list []ast.Stmt
		switch b := n.(type) {
		case *ast.BlockStmt:
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		case *ast.CommClause:
			list = b.Body
		}
		for i, x := range list {
			if a, ok := x.(*ast.AssignStmt); ok && exprs(a.Lhs)+" "+a.Tok.String()+" "+exprs(a.Rhs) == text {
				var next ast.Stmt
				if i+1 < len(list) {
					next = list[i+1]
				}
				out = append(out, [2]ast.Stmt{a, next})
			}
		}
		return true
	})
	return out
}

// first returns the first statement of s's block, or nil.
func first(s *ast.IfStmt) ast.Stmt {
	if len(s.Body.List) == 0 {
		return nil
	}
	return s.Body.List[0]
}

func within(n, outer ast.Node) bool {
	return outer != nil && n.Pos() >= outer.Pos() && n.End() <= outer.End()
}

func line(p token.Pos) int { return srcFset.Position(p).Line }

// registrations lists the callback registrations under root: a call of
// Observe or ObserveRespec with a func literal or more than one argument,
// not a histogram's one-value Observe.
func registrations(root ast.Node) []*ast.CallExpr {
	return find(root, func(c *ast.CallExpr) bool {
		name := ""
		switch f := c.Fun.(type) {
		case *ast.Ident:
			name = f.Name
		case *ast.SelectorExpr:
			name = f.Sel.Name
		}
		if name != "Observe" && name != "ObserveRespec" || len(c.Args) == 0 {
			return false
		}
		_, lit := c.Args[0].(*ast.FuncLit)
		return lit || len(c.Args) > 1
	})
}

// TestGateKernelInlining keeps core.AllocView.HostOf inlined. It is the one
// lookup every per-edge loop of the decision kernel pays, for the engine's
// live view and the shards' frozen views alike: a window test, a test for
// staged words (one branch in a view that staged nothing, the live view
// always), and a load of the cluster's table or of the view's staged block
// for the ID's word (cost 50 of the inliner's 80). Routing it through a
// call costs every edge one — +9-10 % on paper/p50_ms when measured — with
// no other test failing. The gate reads the compiler's own inlining report.
func TestGateKernelInlining(t *testing.T) {
	out, err := exec.Command("go", "build", "-gcflags=-m", "./internal/core").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m ./internal/core: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("can inline (*AllocView).HostOf")) {
		t.Error("the compiler does not inline (*AllocView).HostOf: every per-edge loop of the kernel pays a call")
	}
}

// TestGateLocateOnce keeps the candidate walk off the neighbourhood. A visit
// resolves its holder's peers once (AllocView.resolve: the one HostOf per
// edge TestGateKernelInlining is about, fed to the kernel with Kernel.Peer)
// and every candidate's ΔC is a loop over that scratch (Kernel.Score).
// Re-deriving the neighbourhood per candidate — Delta(u, h) from the
// candidate walk — gives the same decisions bit for bit at 2×
// converge/tail_ms, so no other test fails if it drifts back: the bodies of
// the walk and of the per-candidate methods call no placement lookup, row
// walk or Delta and select nothing of the topology.
func TestGateLocateOnce(t *testing.T) {
	kernel := srcAt(t, "internal/core/kernel.go")
	for _, name := range []string{"Best", "claim", "fold", "Score"} {
		forbidIn(t, method(t, kernel, "Kernel", name), `HostOf\(|NeighborEdges\(|\.Delta\(|topo\.`,
			"Kernel."+name+" re-derives the neighbourhood; a visit locates its peers once (AllocView.resolve)")
	}
}

// TestGateRackClass keeps Kernel.Best's rack walk priced by class. Best
// prices a peer-holding host on its own and a rack's peer-free hosts once,
// at the rack's key: Score then reads only the target's rack and pod keys,
// which the hosts of a rack share (checkLevels refuses a topology where
// they do not). Each clause keeps out a shape that decides the same bit for
// bit (TestBestEqualsNaiveRuleBitForBit: decisions, questions and
// refusals), so no other test fails if it comes back:
//   - the full walk handing the fold one Score per rack host, as
//     considerTarget(u, alt, …) once did (≈ +30 % paper/p50_ms);
//   - a cannot-win walk (the key ≤ c_m or ≤ the running best) that ranges
//     over the rack's hosts rather than the holder's peers (rackPeers),
//     ≈ 77 host tests a decision on paper;
//   - the key priced before its bound, the ΔC of the peer host whose turn
//     walks the rack (0 on the holder's own host), says it can win; 2.7 %
//     of paper's keys can.
//
// Bringing in the last two (with the holder's rack walked once) took
// 14.5 % off paper/p50_ms.
func TestGateRackClass(t *testing.T) {
	kernel := srcAt(t, "internal/core/kernel.go")
	best := method(t, kernel, "Kernel", "Best").Body

	// A peer-free host is priced only at its rack's key.
	forbidIn(t, best, `considerTarget\(`, "a Score per rack host; a rack's peer-free hosts are priced once, at its key")
	full := find(best, func(s *ast.RangeStmt) bool { return strings.HasPrefix(types.ExprString(s.X), "k.rackHosts") })
	for _, c := range calls(best, `(^|\.)fold\($`) {
		if len(c.Args) > 2 && len(calls(c.Args[2], `(^|\.)Score\(`)) > 0 &&
			(types.ExprString(c.Args[1]) == "alt" || len(full) > 0 && within(c, full[0])) {
			t.Errorf("%s: the rack walk folds one Score per host; a peer-free host is priced at its rack's key", at(c))
		}
	}
	if len(assigns(best, "ok, peerFree := k.claim(alt)")) == 0 {
		t.Error("Kernel.Best: no `ok, peerFree := k.claim(alt)`; the rack walk tells peer-free hosts apart")
	}
	keyed := false
	for _, a := range assigns(best, "d := free") {
		if s, ok := a[1].(*ast.IfStmt); ok && s.Init == nil && types.ExprString(s.Cond) == "!peerFree" {
			keyed = true
		}
	}
	if !keyed {
		t.Error("Kernel.Best: `d := free` is not followed by `if !peerFree {`; a peer-free host is priced at its rack's key")
	}

	// The cannot-win walk reads the peers, and the one range over the
	// rack's hosts is the full walk, after it.
	if len(full) != 1 {
		t.Fatalf("Kernel.Best ranges over k.rackHosts %d times, want 1: the full walk", len(full))
	}
	cannot := ifs(best, "!canWin")
	if len(cannot) == 0 {
		t.Fatal("Kernel.Best: no `if !canWin {`; the cannot-win walk reads the holder's peers")
	}
	if cannot[0].Pos() > full[0].Pos() {
		t.Errorf("%s: the range over k.rackHosts comes before `if !canWin {`", at(full[0]))
	}
	if r, ok := first(cannot[0]).(*ast.RangeStmt); !ok || r.Tok != token.DEFINE || r.Key == nil || r.Value == nil ||
		types.ExprString(r.Key) != "_" || types.ExprString(r.Value) != "h" || !strings.HasPrefix(types.ExprString(r.X), "k.rackPeers(") {
		t.Errorf("%s: the cannot-win walk does not start with `for _, h := range k.rackPeers(…)`", at(cannot[0]))
	}
	forbidIn(t, method(t, kernel, "Kernel", "rackPeers"), `rackHosts`, "rackPeers lists the holder's peers, not the rack's hosts")

	// The key is priced once, only behind its bound.
	var keys []*ast.CallExpr
	for _, c := range calls(best, `k\.score\($`) {
		if types.ExprString(c.Args[0]) == "cluster.NoHost" {
			keys = append(keys, c)
		}
	}
	if len(keys) != 1 {
		t.Fatalf("Kernel.Best prices the rack's key (k.score(cluster.NoHost, …)) %d times, want 1", len(keys))
	}
	bounded := false
	for _, s := range ifs(best, "k.beats(bound, &best)") {
		bounded = bounded || within(keys[0], first(s)) && line(keys[0].Pos()) == line(first(s).Pos())
	}
	if !bounded {
		t.Errorf("%s: the rack's key is not on the first line behind `if k.beats(bound, &best) {`; it is priced before its bound", at(keys[0]))
	}
}

// TestGateEq5 keeps ΔC (Eq. 5) in one implementation, core.Kernel.Score,
// through which every plane decides: the engine's views, the dom0 agents,
// the reconciler's re-validation and the GA baseline's search. A private
// copy — a prefix cost of a topology level, summed per peer — passes every
// test of its own plane while the planes drift apart (the agents' copy grew
// a candidate rule of its own unnoticed); none may come back.
func TestGateEq5(t *testing.T) {
	for _, f := range srcUnder(t, "internal", false) {
		for _, c := range calls(f.ast, `Prefix\(`) {
			for _, a := range c.Args {
				if len(calls(a, `Level\(`)) > 0 {
					t.Errorf("%s: %s…%s: a private Eq. 5; ΔC is core.Kernel.Score", at(c), callText(c), types.ExprString(a))
				}
			}
		}
	}
	n := 0
	for _, f := range srcIn(t, "internal/core", false) {
		n += len(find(f.ast, func(b *ast.BinaryExpr) bool {
			return b.Op == token.SUB && strings.HasSuffix(types.ExprString(b.X), "before") && strings.HasPrefix(types.ExprString(b.Y), "after")
		}))
	}
	if n != 1 {
		t.Errorf("internal/core subtracts `before - after` %d times, want 1: Eq. 5's term, in Kernel.score", n)
	}
}

// TestGateQuietWalk keeps a ring pass to the holders that may move. A
// sharded round's ring is a bitmap over the cluster's ID window, and its
// pass visits only the holders set in the ring word ANDed with the view's
// Unsettled word: the memo's settled bits (a verdict with no move and no
// refusal), less the VMs the view's staged commits marked near. Every
// holder passed over is one stillQuiet returns true for at its first test —
// the guard checked here, which is what makes the walk exact. Calling Visit
// for every ring member gives the same decisions and skip set at ≈ +20 %
// converge/p50_ms, and walking the row for every skip after a commit
// ≈ +30 % more, so no other test fails if either comes back.
func TestGateQuietWalk(t *testing.T) {
	pass := method(t, srcAt(t, "internal/shard/coordinator.go"), "enginePlane", "ringPass").Body
	if len(calls(pass, `Unsettled\(`)) == 0 {
		t.Error("enginePlane.ringPass does not AND its ring words with Unsettled; it visits settled holders")
	}
	for _, r := range find(pass, func(r *ast.RangeStmt) bool { return strings.HasPrefix(types.ExprString(r.X), "part.VMs(") }) {
		t.Errorf("%s: ringPass ranges over part.VMs(…): a Visit per ring member", at(r))
	}

	quiet := method(t, srcAt(t, "internal/core/memo.go"), "AllocView", "stillQuiet").Body
	if len(assigns(quiet, "near := staged && v.marked(u)")) == 0 {
		t.Error("AllocView.stillQuiet: no `near := staged && v.marked(u)`; a skip tests the near marks first")
	}
	guards, loops := ifs(quiet, "!near && !refused"), calls(quiet, `NeighborEdges\(`)
	if len(guards) == 0 || len(loops) == 0 {
		t.Fatalf("AllocView.stillQuiet: the guard `if !near && !refused {` (%d) or the row walk (%d) is gone", len(guards), len(loops))
	}
	if guards[0].Pos() > loops[0].Pos() {
		t.Errorf("%s: stillQuiet walks the row before its `if !near && !refused {` guard", at(loops[0]))
	}
	if r, ok := first(guards[0]).(*ast.ReturnStmt); !ok || exprs(r.Results) != "true" {
		t.Errorf("%s: `if !near && !refused {` does not return true first; a quiet skip walks the row", at(guards[0]))
	}
}

// TestGateMemoPrecision keeps the memo's relax rule narrow. A no-move
// verdict that had refusals depends only on the room of the hosts that
// refused it, and a host can flip a refusal only by gaining room. A
// placement change frees room on its source and may lower its target's NIC
// load; a peer's host elsewhere takes −r and +r, which net to exactly 0 on
// the 2^-20 Mb/s rate grid. A rate change frees NIC room only when it
// falls. Relaxing the peers' hosts on a move and the endpoints' hosts on a
// rise decides the same bit for bit at ≈ +15 % converge/p50_ms (2-vCPU
// host), re-evaluating refused verdicts whose answer cannot have changed;
// the memo tests pin the skips on a hand-built instance, and this gate
// keeps the broad rule out of the product code.
func TestGateMemoPrecision(t *testing.T) {
	memo := srcAt(t, "internal/core/memo.go")
	if n := len(calls(method(t, memo, "Engine", "memoMove").Body, `relax\(`)); n != 2 {
		t.Errorf("Engine.memoMove relaxes %d hosts, want 2: the move's source and target", n)
	}
	sync := method(t, memo, "Engine", "memoSync").Body
	loops := find(sync, func(r *ast.RangeStmt) bool { return types.ExprString(r.X) == "changes" })
	if len(loops) == 0 {
		t.Fatal("Engine.memoSync: no `range changes`; the gate reads the rate fold")
	}
	guards := ifs(loops[0], "ch.New < ch.Old")
	if len(guards) == 0 {
		t.Fatalf("%s: the rate fold has no `if ch.New < ch.Old {` guard; only a fall frees room", at(loops[0]))
	}
	for _, c := range calls(loops[0], `relax\(`) {
		if c.Pos() < guards[0].Pos() {
			t.Errorf("%s: the rate fold relaxes a host before its `if ch.New < ch.Old {` guard", at(c))
		}
	}
	if len(calls(guards[0].Body, `relax\(`)) == 0 {
		t.Errorf("%s: a falling rate relaxes no host", at(guards[0]))
	}
}

// TestGateOneSearch keeps Matrix.Set to one search of each endpoint's row:
// the edit of u's row (setEdge, dropEdge) reports the rate it replaced,
// which the changelog records as Old. Reading it first with Rate searches
// u's row twice for the same entries and logs the same values bit for bit
// (TestSetFollowsMapModel cannot tell), at ≈ +7 % ingest/p50_ms (8 of 10
// pairs on a 2-vCPU host).
func TestGateOneSearch(t *testing.T) {
	set := method(t, srcAt(t, "internal/traffic/matrix.go"), "Matrix", "Set")
	for _, c := range calls(set, `Rate\(`) {
		t.Errorf("%s: %s: Matrix.Set reads a rate before its edit; setEdge and dropEdge report the rate they replace", at(c), callText(c))
	}
}

// TestGateRingOrder keeps the per-hop token protocol out of the in-process
// plane. A sharded round walks each ring — the partition's bitmap of the
// shard's VMs, word by word — once in ID order: its rings are walked once
// per round, so a forwarding policy has no history to prioritise with
// (token.RingOrder). The per-hop protocol (a token.Token per ring, a
// HolderView per hop, Policy.Next) cost 60-90 % of a quiet round for the
// same visiting order, with no test failing.
func TestGateRingOrder(t *testing.T) {
	forbid(t, srcIn(t, "internal/shard", false), `token\.Token|HolderView|\.Next\(`,
		"the in-process plane walks its rings in ID order, with no per-hop token protocol")
}

// TestGateHolderView keeps the single token's hop lean and on one clock.
//
// A token hop lends the policy its holder's pair levels as a reused
// []token.Entry (HolderView.Neighbors). The map the hop used to build and
// clear cost more than the decision it followed, and HLF ranging over it
// as much again, with no test failing: no program outside bench/ (which
// compiles against internal/ on its own schedule) may fill NeighborLevels
// again. The pre-copy model's background load is the engine's NIC load
// over the host link's capacity (sim.Runner.linkUtil, equal to the routed
// load by Float64bits); the routed loads are synced once, at a run's end,
// so the simulator reads no per-migration host-link utilization. The
// holder view reads the holder's host once and each peer's level from the
// engine's level tables (Engine.HostLevel); Engine.PairLevel per peer
// fetched the live view and the holder's host again for every entry. Both
// decide the same bit for bit; no other test fails if PairLevel comes back.
//
// One clock: the single token is in one place at a time, so a serial run
// has one pending token event (the next hop or a lost token's
// regeneration) and a Remedy run one pending round, each beside the
// sampling tick; sim.Runner.run orders the two by due time and scheduling
// order. A discrete-event queue under them ordered nothing more
// (TestClockPinned pins the order of events due at one time), and a
// closure per hop or an event per migration cost an allocation each
// (TestHopZeroAllocs, TestUnconvergedRunAllocsBelowMigrations). netsim
// keeps only the network model.
func TestGateHolderView(t *testing.T) {
	levels := func(x ast.Expr) bool {
		for {
			switch e := x.(type) {
			case *ast.IndexExpr:
				x = e.X
				continue
			case *ast.ParenExpr:
				x = e.X
				continue
			}
			return strings.HasSuffix(types.ExprString(x), "NeighborLevels")
		}
	}
	for _, f := range srcUnder(t, ".", false) {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			var filled []ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				filled = n.Lhs
			case *ast.IncDecStmt:
				filled = []ast.Expr{n.X}
			case *ast.KeyValueExpr:
				filled = []ast.Expr{n.Key}
			case *ast.ValueSpec:
				if len(n.Values) > 0 {
					for _, id := range n.Names {
						filled = append(filled, id)
					}
				}
			}
			for _, x := range filled {
				if levels(x) {
					t.Errorf("%s: %s is filled; a hop lends HolderView.Neighbors", at(x), types.ExprString(x))
				}
			}
			return true
		})
	}
	sim := srcIn(t, "internal/sim", false)
	forbid(t, sim, `HostLinkUtilization\(`, "the migration model reads sim.Runner.linkUtil; the routed loads sync once, at a run's end")
	forbid(t, sim, `PairLevel\(`, "the holder view reads each peer's level from Engine.HostLevel")

	// One clock.
	netsim := srcIn(t, "internal/netsim", false)
	for _, s := range typeSpecs(netsim, `^(Engine|event|eventQueue)$`) {
		t.Errorf("%s: netsim declares type %s; it keeps only the network model", at(s), s.Name.Name)
	}
	for _, f := range netsim {
		for _, a := range find(f.ast, func(a *ast.ArrayType) bool {
			return a.Len == nil && regexp.MustCompile(`^\*?event$`).MatchString(types.ExprString(a.Elt))
		}) {
			t.Errorf("%s: %s: an event queue; sim.Runner.run keeps one pending event beside the tick", at(a), types.ExprString(a))
		}
	}
	forbid(t, sim, `des\.|NewEngine\(|hopFn|tickFn`, "a scheduler in the Runner; sim.Runner.run is one clock")
}

// TestGateDerivedRings keeps a round's rings a function of the placement
// table. The in-process plane's Run patches their bitmaps from the
// cluster's passive placement changelog (Partition.addPlaced reads
// cluster.MovesSince: one bit cleared and one set per logged write) and
// refills them — every bitmap cleared, one bit set per placed VM — when the
// log refuses (a Restore), when more than 2,048 writes landed since (the
// partition's own crossover, patchMax: past it a refill costs less than
// the patch; the log itself reaches back the plant's VM slots), when the
// ID window regrew, or when the shape changed. The shard views derive
// nothing from the table: they read the cluster's own and undo only their
// staged commits at reset (TestGateOnePlacementTable). At k=24 with 24 pod
// shards the patch after 100 merged moves, with the 24 view resets, is
// ≈ 2 µs against ≈ 0.5 ms for the refill (BenchmarkQuietRoundReset,
// BenchmarkPartitionRefill); TestPatchedEqualsRefilled holds the patch to
// a fresh partition. The agent plane lists its rings from the sorted
// registry. A partition kept in step by a cluster observer over sorted
// slices — inserts and deletes per move — passes every test while costing
// about a quarter of converge/tail_ms: each cross-shard move shifts a
// ring's worth of IDs, inside the sequential merge phase. The pattern is a
// callback registration — Observe with two arguments, or a func literal —
// not a histogram's one-value Observe, which this package calls three
// times.
func TestGateDerivedRings(t *testing.T) {
	shard := srcIn(t, "internal/shard", false)
	for _, f := range shard {
		for _, c := range registrations(f.ast) {
			t.Errorf("%s: %s…: a cluster observer; the rings fold the placement changelog", at(c), callText(c))
		}
	}
	forbid(t, shard, `slices\.(Insert|Delete)`, "rings kept as sorted slices; a ring is a bitmap patched from the changelog")
	if len(calls(method(t, srcAt(t, "internal/shard/partition.go"), "Partition", "addPlaced").Body, `MovesSince\(`)) == 0 {
		t.Error("Partition.addPlaced does not read cluster.MovesSince; the rings follow the placement changelog")
	}
	tests := srcWhere(t, "internal/shard/*_test.go", true, func(p string) bool {
		return path.Dir(p) == "internal/shard" && strings.HasSuffix(p, "_test.go")
	})
	if len(funcs(tests, "", `^TestPatchedEqualsRefilled$`)) == 0 {
		t.Error("internal/shard: no TestPatchedEqualsRefilled; the patch is held to a fresh partition")
	}
}

// TestGateOnePlacementTable keeps the cluster's placement table the only
// one the decision views read: a frozen view is that table plus its own
// overlay — the positions of the VMs its staged commits reached and the
// room those commits took — and its reset undoes only what it staged. A
// private copy per view, patched from the placement changelog at every
// reset, decides the same bit for bit but cost 19 % of the restored
// daemon's CPU at 128 rack shards (each view rewriting every merged move
// into its own 30,720-entry copy, ≈ 15 MB together) with no test failing;
// core must not copy the table. The placement changelog has one reader in
// core, the visit memo's memoSync, which drops verdicts from it rather than
// deriving a table — as TestGateOneFollower admits memo.go for the traffic
// changelog.
func TestGateOnePlacementTable(t *testing.T) {
	core := srcIn(t, "internal/core", false)
	forbid(t, core, `DenseAllocSnapshotInto`, "a view's copy of the placement table; views read the cluster's")
	forbid(t, srcWhere(t, "internal/core", false, func(p string) bool { return path.Dir(p) == "internal/core" && p != "internal/core/memo.go" }), `MovesSince\(`, "a second reader of the placement changelog in core; only memoSync reads it")
	if len(calls(method(t, srcAt(t, "internal/core/memo.go"), "Engine", "memoSync").Body, `MovesSince\(`)) == 0 {
		t.Error("Engine.memoSync does not read cluster.MovesSince; the memo folds the placement changelog")
	}
}

// TestGateOneChangeSource keeps the placement changelog (cluster.MovesSince)
// the only way a reader learns of a write to the placement table: the
// cluster calls no one. Push observers — callbacks the cluster ran inside
// Place/Move/Remove/Respec/Restore — brought their own lifecycle (a
// replaced observer kept firing unless unregistered, so Detach plumbing
// ran through seven packages) and a follower rule (pin the mover, fold
// pending rate changes first) that existed only because folds ran
// mid-merge. Readers now fold the log when they read. The pattern is
// TestGateDerivedRings': a callback registration, not a histogram's
// one-value Observe.
func TestGateOneChangeSource(t *testing.T) {
	cluster := srcIn(t, "internal/cluster", false)
	for _, fd := range funcs(cluster, "Cluster", `^Observe(Respec)?$`) {
		t.Errorf("%s: (Cluster).%s: the cluster calls no one; readers fold cluster.MovesSince", at(fd), fd.Name.Name)
	}
	forbid(t, cluster, `allocObserver|notify[A-Z]`, "the cluster notifies no one; readers fold cluster.MovesSince")
	for _, f := range srcUnder(t, "internal", false) {
		for _, c := range registrations(f.ast) {
			t.Errorf("%s: %s…: a push observer; readers fold cluster.MovesSince", at(c), callText(c))
		}
	}
}

// TestGateExactSums keeps float residue handling out. Rates sit on a 2^-20
// Mb/s grid (internal/traffic), so every sum of rates — NIC loads,
// per-level totals, link loads, pod-pair rates — is exact and a fold
// equals a rebuild bit for bit (core.TestAccountingFoldEqualsRebuildBitForBit,
// TestRebuildTimingDoesNotChangeDecisions). A periodic resync, an epsilon
// or a clamp for float residue would pass every test while hiding a writer
// that left the grid; none may come back.
func TestGateExactSums(t *testing.T) {
	forbid(t, srcUnder(t, "internal", false), `acctResyncInterval|acctFolds|cellEpsilon|clamp accumulated float error|last.ulp`,
		"every sum of rates is exact on the 2^-20 Mb/s grid; nothing resyncs or clamps it")
}

// TestGatePlannerResolution keeps control.Summary to what control.Plan
// reads: three locality sums and a pod × pod table. A rack-pair structure
// beside them (a map of cells, a sorted view of it) passes every test —
// same recommendations — while costing ≈ 40 % of a quiet k=24 round; a
// rack heatmap, when a figure wants one, is traffic.TorMatrix.
func TestGatePlannerResolution(t *testing.T) {
	files := []*srcFile{srcAt(t, "internal/control/summary.go"), srcAt(t, "internal/control/planner.go")}
	for _, f := range files {
		for _, m := range find(f.ast, func(*ast.MapType) bool { return true }) {
			t.Errorf("%s: %s: the planner keeps locality sums and a pod × pod table, no map", at(m), types.ExprString(m))
		}
	}
	forbid(t, files, `map\[|sort\.|slices\.(Sort|BinarySearch)`, "the planner keeps locality sums and a pod × pod table, nothing sorted")
}

// TestGateOneReplay keeps the merge phase (shard.Merge) to one replay loop:
// each move is re-validated against the state the previous one left, then
// applied, on every plane. A second, windowed replay for the dom0 plane
// (commit windows over an Env that pipelines applies, sized by an RTT
// tuner) was held to the first record for record by its own tests, ran on
// no benchmark workload, and rarely found more than one independent move
// per window; the reconciler's one concurrent capacity-probe wave is the
// part that pays on a wire. Neither the second path nor its metric may come
// back, in the product code or its tests.
func TestGateOneReplay(t *testing.T) {
	forbid(t, srcUnder(t, "internal", true), `BatchEnv|BatchTuner|ApplyAll|replayWindowed|batchWindow|MergeWindow|merge_window`,
		"a second, windowed replay; shard.Merge has one replay loop")
}

// TestGateOneRound keeps both sharded planes on one round driver,
// shard.Driver: round number and trace start, the tuner's plan and clamp,
// the host→shard table, the merge fed in shard order, the report. The agent
// plane (hypervisor.Reconciler) supplies a shard.Plane — assignment push,
// token rings listed from the registry and their supervision, the wire Env
// — and nothing else: a second partition build, tuner clamp or merge
// feeding beside it would pass every equivalence test
// (TestAgentRoundsMatchCoordinatorSharded) while the two copies drift
// apart.
func TestGateOneRound(t *testing.T) {
	forbid(t, srcIn(t, "internal/hypervisor", false), `NewHostPartition|Tuner\.Plan\(|shard\.Merge\{|\.Cross\(\)|\.Finish\(`,
		"the agent plane runs shard.Driver's round; it supplies a shard.Plane and nothing else")
}

// TestGateRegistryPlacement keeps the placement registry the dom0 plane's
// one answer to "where is this VM": agents read their peers' servers from
// Registry.HostOfVM, and the reconciler lists each shard's ring straight
// from the registry. A location request to the dom0 the registry names
// could only answer the host the registry maps that address to
// (Registry.AssignHost keeps an address on one host), and when the peer's
// dom0 was unreachable it dropped the peer from the holder's row. Before
// the request and its per-agent cache went, a TTL on that cache re-probed
// 1,288 locations in the first quiet k=8 round after an idle second, an
// abort message deleted 355 entries a convergence never read, and a ring
// bitmap filled from the registry only to be expanded back into the same
// lists; all passed every test. None may come back.
func TestGateRegistryPlacement(t *testing.T) {
	forbid(t, []*srcFile{srcAt(t, "internal/hypervisor/agent.go"), srcAt(t, "internal/hypervisor/shardagent.go")}, `time\.Now`,
		"an agent reads no clock; no location cache expires")
	hv := srcIn(t, "internal/hypervisor", false)
	forbid(t, hv, `MsgReconcileAbort|locationCacheTTL`, "the abort message and the cache TTL are gone")
	forbid(t, hv, `MsgLocationReq|MsgLocationResp|locCache|cachedLocation|cacheLocation`,
		"a location request or cache; agents read Registry.HostOfVM")
	plane, ok := typeSpec(t, srcAt(t, "internal/shard/round.go"), "Plane").Type.(*ast.InterfaceType)
	if !ok {
		t.Fatal("internal/shard/round.go: Plane is not an interface; the gate reads its methods")
	}
	for _, m := range plane.Methods.List {
		for _, id := range m.Names {
			if strings.HasSuffix(id.Name, "Fill") {
				t.Errorf("%s: shard.Plane.%s: a ring fill through the partition's bitmaps; the agent plane lists rings from the registry", at(id), id.Name)
			}
		}
	}
	for _, fd := range funcs([]*srcFile{srcAt(t, "internal/shard/partition.go")}, "Partition", `^(Add|empty)$`) {
		t.Errorf("%s: (Partition).%s: rings are filled from the placement table only", at(fd), fd.Name.Name)
	}
}

// TestGateOneAdmission keeps every plane on one admission rule, core.Admit:
// free slots, RAM and CPU, and Section V-C's NIC threshold, over what a
// capacity response reports. The dom0 agents once compared slots and RAM on
// their own and the engine had a settable threshold and an admission hook,
// so the plane-equivalence tests ran with bandwidth admission off on hosts
// without CPU capacity, and passed. No setting, no capacity comparison on
// the agent plane (a sign check against zero aside) and no second NIC
// projection (counted as TestGateEq5 counts) may come back.
func TestGateOneAdmission(t *testing.T) {
	forbid(t, srcUnder(t, "internal", false), `BandwidthThreshold|(cfg|Config)\.Admission`,
		"an admission setting; every plane admits through core.Admit")
	capacity := regexp.MustCompile(`(^|_)(Free)?([Ss]lots|RAMMB|ramMB|[Rr]am|CPUMilli|cpuMilli|[Cc]pu|CPUCap|NIC[A-Za-z]*|nic[A-Za-z]*)$`)
	zero := func(x ast.Expr) bool {
		l, ok := x.(*ast.BasicLit)
		return ok && strings.Trim(l.Value, "0.") == ""
	}
	for _, f := range srcIn(t, "internal/hypervisor", false) {
		named := map[int]string{} // a line → a capacity name on it
		for _, id := range find(f.ast, func(id *ast.Ident) bool { return capacity.MatchString(id.Name) }) {
			named[line(id.Pos())] = id.Name
		}
		for _, b := range find(f.ast, func(b *ast.BinaryExpr) bool {
			switch b.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.SHR:
				return !zero(b.Y)
			}
			return false
		}) {
			for l := line(b.Pos()); l <= line(b.End()); l++ {
				if name, ok := named[l]; ok {
					t.Errorf("%s: %s beside %s: a capacity check of the agent plane's own; it admits through core.Admit", at(b), types.ExprString(b), name)
					break
				}
			}
		}
	}
	n := 0
	for _, f := range srcIn(t, "internal/core", false) {
		n += len(find(f.ast, func(b *ast.BinaryExpr) bool {
			if b.Op != token.SUB {
				return false
			}
			y := b.Y
			for {
				m, ok := y.(*ast.BinaryExpr)
				if !ok || m.Op != token.MUL {
					break
				}
				if l, ok := m.X.(*ast.BasicLit); ok && l.Value == "2" {
					return true
				}
				y = m.X
			}
			return false
		}))
	}
	if n != 1 {
		t.Errorf("internal/core subtracts `x - 2*y` %d times, want 1: the one NIC projection, Need.Shift", n)
	}
}

// TestGateOneFollower keeps one follower of the traffic changelog. A sum
// over communicating pairs — the engine's per-level rates and NIC loads,
// the planner's summary, the link loads — is kept current by one
// traffic.Follower, which every read syncs: it folds the rate changes at
// the endpoints' last-sync hosts, then each moved VM's row once per pair
// from those hosts to the current ones, and rebuilds when either changelog
// refuses. Three hand-written copies of that protocol each passed their
// own tests; the memo, which clears verdicts rather than summing rates, is
// the one other reader of the changelog. No second reader and no hand
// shifting of a pair sum may come back outside bench/ (which compiles
// against internal/ on its own schedule).
//
// The engine syncs its follower in one method, Engine.sync, which
// TotalCost and HostNetLoad call and admission calls only when the NIC
// bound does not hold. The bound is not a second follower: it reads no
// changelog and sums no pairs — Engine.Land adds the mover's rate at its
// two hosts, and every sync zeroes it — and the exact per-host read behind
// a refusal under it is a pure read of one host's rows that keeps nothing.
func TestGateOneFollower(t *testing.T) {
	readers := srcWhere(t, "the module less internal/traffic/ and internal/core/memo.go", false, func(p string) bool {
		return !strings.HasPrefix(p, "internal/traffic/") && p != "internal/core/memo.go"
	})
	forbid(t, readers, `ChangesSince\(`, "a second reader of the traffic changelog; sums over pairs are kept by traffic.Follower")
	all := srcUnder(t, ".", false)
	forbid(t, all, `\b(ShiftPair|syncOverride|foldTrafficChanges|rebuildAccounting|shiftApplied|shiftFlows)\b`,
		"a pair sum shifted by hand; traffic.Follower folds it")
	var syncs []*ast.CallExpr
	for _, f := range all {
		syncs = append(syncs, calls(f.ast, `acct\.Sync\(`)...)
	}
	if len(syncs) != 1 {
		for _, c := range syncs {
			t.Logf("%s: %s", at(c), callText(c))
		}
		t.Errorf("the module calls acct.Sync %d times, want 1: in Engine.sync", len(syncs))
	}
	sync := method(t, srcAt(t, "internal/core/engine.go"), "Engine", "sync")
	if sync.Type.Params.NumFields() != 0 || sync.Type.Results != nil {
		t.Errorf("%s: Engine.sync takes or returns a value; it is the follower's one sync point", at(sync))
	}
	if n := len(calls(sync.Body, `^e\.acct\.Sync\(\)$`)); n != 1 {
		t.Errorf("Engine.sync calls e.acct.Sync() %d times, want 1", n)
	}
}

// TestGateSettings keeps values only tests set constants. The TCP pool's
// idle cap, idle timeout and heartbeat timers, the flight recorder's bundle
// cap, rate limit, profile length, poll and audit tail, the daemon's
// history length and first VM ID, the GA's dense genomes, the dom0 plane's
// probe timeout, eviction attempt count and shard-token observer were
// settable, and no program set them; the daemon's, the coordinator's and
// the GA's worker pools are GOMAXPROCS, and a setting whose default equals
// that is a second way to say it. The transport's metric families were
// registered and never recorded. None may come back outside bench/ (which
// compiles against internal/ on its own schedule); tests lower the probe
// timeout, raise the eviction attempt count and set the observer in
// package, and vary GOMAXPROCS.
//
// Section VI runs every comparison at one setting, so the GA's operators
// and stop rule, Remedy's setup, the traffic generator's shape and the
// simulator's migration model and regeneration timer are constants: no
// struct declares them again and no selector names them (only
// remedy.HorizonS is exported, for fig4's c_m). Struct fields and
// selectors are matched, not words: Elite and Model are ordinary words,
// and serve's RoundInterval is not RoundIntervalS. The pre-copy model's
// eleven values are package constants of internal/migration: it declares
// no Model or WorkloadDist, and the constructors and facade names that
// returned them are gone. Those are matched as words, since
// migration.SetupS and the like are now legitimate selectors.
func TestGateSettings(t *testing.T) {
	programs := srcUnder(t, ".", false)
	forbid(t, programs, `\b(TCPConfig|NewTCPTransportConfig|TransportMetrics|FlightConfig|HistoryRounds|FirstVMID|ShardWorkers|DenseGenomes)\b`,
		"a setting no program sets is a constant")
	forbid(t, srcUnder(t, ".", true), `\b(ProbeTimeout|OnShardToken|EvictAttempts)\b`,
		"the probe timeout, the shard-token observer and the eviction attempt count are unexported; tests set them in package")
	for _, p := range []string{"internal/serve/serve.go", "internal/shard/coordinator.go", "internal/ga/ga.go"} {
		for _, id := range fieldNames(structType(t, srcAt(t, p), "Config")) {
			if id.Name == "Workers" {
				t.Errorf("%s: Config.Workers: the worker pool is GOMAXPROCS", at(id))
			}
		}
	}
	cmds := srcWhere(t, "cmd/*/*.go", true, func(p string) bool { return strings.HasPrefix(p, "cmd/") && strings.Count(p, "/") == 2 })
	forbid(t, cmds, `"-?(shard-)?workers"`, "a worker-count flag; the pools are GOMAXPROCS")

	for _, g := range []struct{ file, typ, fields string }{
		{"internal/ga/ga.go", "Config", "TournamentK|CrossoverRate|MutationRate|MaxSwaps|Elite|StopRelImprovement|StopGenerations|GreedySeedFraction|LocalSearchVMs"},
		{"internal/sim/sim.go", "Config", "Model|Workloads|RegenTimeoutS"},
		{"internal/sim/remedyrun.go", "RemedyConfig", "RoundIntervalS|Controller"},
		{"internal/traffic/traffic.go", "GenConfig", "MicePairsPerVM|LocalityBias|PartnerRacksPerRack|MiceRateMinMbps|MiceRateMaxMbps|ElephantsPerHotspot|ElephantRateMu|ElephantRateSigma|ElephantCapMbps|IntraRackHotspotFraction"},
	} {
		gone := regexp.MustCompile(`^(` + g.fields + `)$`)
		for _, id := range fieldNames(structType(t, srcAt(t, g.file), g.typ)) {
			if gone.MatchString(id.Name) {
				t.Errorf("%s: %s.%s declares a constant of Section VI's one setting", at(id), g.typ, id.Name)
			}
		}
	}
	for _, s := range typeSpecs(srcIn(t, "internal/remedy", true), `^Config$`) {
		t.Errorf("%s: remedy.Config: Remedy's setup is constants", at(s))
	}
	forbid(t, programs, `\.(TournamentK|CrossoverRate|MutationRate|MaxSwaps|Elite|StopRelImprovement|StopGenerations|GreedySeedFraction|LocalSearchVMs|CongestionThreshold|TargetHeadroom|MaxMigrationsPerRound|CandidateTargets|RoundIntervalS|RegenTimeoutS|Workloads|MicePairsPerVM|LocalityBias|PartnerRacksPerRack|MiceRateMinMbps|MiceRateMaxMbps|ElephantsPerHotspot|ElephantRateMu|ElephantRateSigma|ElephantCapMbps|IntraRackHotspotFraction)\b`,
		"a selector of a Section VI constant; no struct declares it")
	for _, s := range typeSpecs(srcIn(t, "internal/migration", true), `^(Model|WorkloadDist)$`) {
		t.Errorf("%s: migration.%s: the pre-copy model's values are package constants", at(s), s.Name.Name)
	}
	forbid(t, programs, `\b(DefaultModel|PaperWorkloadDist|DefaultMigrationModel|MigrationModel)\b`,
		"a migration model value; migration.Sample draws from the package constants")
}

// TestGateOneDeadline keeps the agent plane on one recovery deadline,
// ReconcilerConfig.ShardDeadline, in every round. A learned per-shard
// estimate (EWMA + k·stddev of per-hop ack latency, with a 10ms floor and
// a spurious-regeneration backoff) once sat beside it behind a switch in
// the reconciler's config, sim.Config and scoresim. Under injected delay
// both rules applied the identical migration sequence and left the
// identical placement, since the attempt number discards a regenerated
// ring's slow original (TestChaosDelayRegenBehaviorNeutral holds this for
// the fixed rule). No switch, no estimator and no other deadline in
// collect may come back.
func TestGateOneDeadline(t *testing.T) {
	for _, f := range srcUnder(t, ".", true) {
		for _, st := range find(f.ast, func(*ast.StructType) bool { return true }) {
			for _, id := range fieldNames(st) {
				if id.Name == "AdaptiveDeadline" {
					t.Errorf("%s: struct field %s: a switch between two deadline rules; the plane has one", at(id), id.Name)
				}
			}
		}
	}
	for _, s := range typeSpecs(srcIn(t, "internal/hypervisor", true), `^latencyEstimator$`) {
		t.Errorf("%s: type %s: a learned deadline; every shard's is ShardDeadline", at(s), s.Name.Name)
	}
	collect := method(t, srcAt(t, "internal/hypervisor/reconciler.go"), "Reconciler", "collect")
	mentions := func(x ast.Expr) bool {
		return len(find(x, func(s *ast.SelectorExpr) bool { return types.ExprString(s) == "tk.lastProgress" })) > 0
	}
	n := 0
	for _, b := range find(collect.Body, func(b *ast.BinaryExpr) bool {
		switch b.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			return mentions(b.X) || mentions(b.Y)
		}
		return false
	}) {
		n++
		other := b.Y
		if mentions(b.Y) {
			other = b.X
		}
		if types.ExprString(other) != "r.cfg.ShardDeadline" {
			t.Errorf("%s: %s: Reconciler.collect holds tk.lastProgress against %s; the deadline is r.cfg.ShardDeadline", at(b), types.ExprString(b), types.ExprString(other))
		}
	}
	if n == 0 {
		t.Error("Reconciler.collect compares nothing against tk.lastProgress; the gate reads its deadline check")
	}
}

// TestGateOneRunPath keeps every experiment cell on one run path,
// Scenario.runCell: clone the cluster, build one engine over the clone with
// the cell's cost model and engine config, build the runner, run. Eight
// sites once spelled that out, each its own way, and two helpers built the
// clone's engine and then a second one with the cell's config; every figure
// came out the same. A second copy of the path would pass every figure
// test, so runCell's call is the only sim.NewRunner call in the package's
// programs, and runCell builds exactly one engine.
func TestGateOneRunPath(t *testing.T) {
	files := srcIn(t, "internal/experiments", false)
	run := method(t, srcAt(t, "internal/experiments/scenario.go"), "Scenario", "runCell")
	n := 0
	for _, f := range files {
		for _, c := range calls(f.ast, `^sim\.NewRunner\($`) {
			if within(c, run) {
				n++
				continue
			}
			t.Errorf("%s: sim.NewRunner outside Scenario.runCell; every experiment cell runs through it", at(c))
		}
	}
	if n != 1 {
		t.Errorf("Scenario.runCell calls sim.NewRunner %d times; it builds one runner", n)
	}
	if e := len(calls(run.Body, `^core\.NewEngine\($`)); e != 1 {
		t.Errorf("Scenario.runCell calls core.NewEngine %d times; a cell builds one engine", e)
	}
	forbid(t, files, `^(runOnce|rebuildEngine)\($`, "a second run helper; cells run through Scenario.runCell")
}
