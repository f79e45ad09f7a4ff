package lint

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestAckOrderCatchesReorderedAck is the acceptance check for the
// exactly-once static rule: take the real internal/server/server.go, break
// the durable-before-ack order inside processEpoch in a scratch copy, and
// require ackorder to flag the copy while passing the pristine file. Two
// breakages, each the exact bug the rule exists to catch (client told
// "admitted" before the decision is durable; a crash in between
// double-admits on replay):
//   - the ack send moved ahead of the engine Offer that prices and
//     journals the decision;
//   - the epoch's group commit moved below phase-2 delivery, so Offer has
//     written the records but nothing has synced them when the acks leave.
func TestAckOrderCatchesReorderedAck(t *testing.T) {
	const path = "../../internal/server/server.go"
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading server source: %v", err)
	}

	pristine, err := NewRepoFromSource("internal/server/server.go", string(src))
	if err != nil {
		t.Fatalf("server.go does not parse: %v", err)
	}
	if findings := pristine.Run([]*Analyzer{ByName("ackorder")}); len(findings) != 0 {
		t.Fatalf("pristine server.go already flagged: %v", findings)
	}

	hasCall := func(name string) func(ast.Node) bool {
		return func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			return ok && calleeName(call) == name
		}
	}
	hasSend := func(n ast.Node) bool {
		_, ok := n.(*ast.SendStmt)
		return ok
	}
	// moveSendBeforeOffer: in the first statement list where some
	// statement's subtree prices via Offer and a LATER statement's subtree
	// performs an ack send (the two-phase processEpoch keeps them in sibling
	// loops of one function body), move the ack-bearing statement in front
	// of the Offer-bearing one.
	moveSendBeforeOffer := func(list []ast.Stmt) ([]ast.Stmt, bool) {
		offerIdx, sendIdx := -1, -1
		for i, st := range list {
			if offerIdx < 0 && subtreeHas(st, hasCall("Offer")) {
				offerIdx = i
				continue
			}
			if offerIdx >= 0 && sendIdx < 0 && subtreeHas(st, hasSend) {
				sendIdx = i
			}
		}
		if offerIdx < 0 || sendIdx < 0 {
			return nil, false
		}
		return moveStmt(list, sendIdx, offerIdx), true
	}
	// moveCommitAfterDelivery: in the first statement list where a
	// statement calls Commit and a LATER statement performs an ack send,
	// move the Commit statement just past the ack-bearing one.
	moveCommitAfterDelivery := func(list []ast.Stmt) ([]ast.Stmt, bool) {
		commitIdx, sendIdx := -1, -1
		for i, st := range list {
			if commitIdx < 0 && subtreeHas(st, hasCall("Commit")) {
				commitIdx = i
				continue
			}
			if commitIdx >= 0 && subtreeHas(st, hasSend) {
				sendIdx = i
			}
		}
		if commitIdx < 0 || sendIdx < 0 {
			return nil, false
		}
		return moveStmt(list, commitIdx, sendIdx), true
	}

	for _, tc := range []struct {
		name   string
		mutate func([]ast.Stmt) ([]ast.Stmt, bool)
	}{
		{"send before Offer", moveSendBeforeOffer},
		{"Commit after delivery", moveCommitAfterDelivery},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, "server.go", src, 0)
			if err != nil {
				t.Fatal(err)
			}
			moved := false
			ast.Inspect(file, func(n ast.Node) bool {
				if moved {
					return false
				}
				block, ok := n.(*ast.BlockStmt)
				if !ok {
					return true
				}
				if list, ok := tc.mutate(block.List); ok {
					block.List = list
					moved = true
					return false
				}
				return true
			})
			if !moved {
				t.Fatal("no statement list of the expected shape found in server.go; the acceptance reorder needs updating")
			}
			var buf bytes.Buffer
			if err := format.Node(&buf, fset, file); err != nil {
				t.Fatal(err)
			}

			scratch, err := NewRepoFromSource("internal/server/server.go", buf.String())
			if err != nil {
				t.Fatalf("reordered server.go does not parse: %v", err)
			}
			findings := scratch.Run([]*Analyzer{ByName("ackorder")})
			for _, f := range findings {
				if f.Analyzer == "ackorder" && strings.Contains(f.Message, "result send is not preceded") {
					return
				}
			}
			t.Fatalf("durable-before-ack order broken (%s), but no ackorder finding names the result send; got: %v", tc.name, findings)
		})
	}
}

// subtreeHas reports whether any node in st's subtree satisfies pred.
func subtreeHas(st ast.Stmt, pred func(ast.Node) bool) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if found {
			return false
		}
		if pred(n) {
			found = true
		}
		return !found
	})
	return found
}

// moveStmt returns a copy of list with list[from] moved next to list[to]:
// just before it when to < from, just after it when to > from.
func moveStmt(list []ast.Stmt, from, to int) []ast.Stmt {
	st := list[from]
	without := append(append([]ast.Stmt{}, list[:from]...), list[from+1:]...)
	out := make([]ast.Stmt, 0, len(list))
	out = append(out, without[:to]...)
	out = append(out, st)
	return append(out, without[to:]...)
}
