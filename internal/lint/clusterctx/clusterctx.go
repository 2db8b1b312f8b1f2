// Package clusterctx checks that cluster RPC paths propagate
// deadline-carrying contexts.
//
// Every blocking operation in internal/cluster — dialing the leader,
// writing a replication frame, waiting out a reconnect backoff — must
// inherit the caller's context so that node shutdown and failover
// timeouts actually cancel in-flight work. A context.Background() (or
// context.TODO()) minted inside the package severs that chain: the
// operation outlives its caller, a dead peer can pin a goroutine forever,
// and Kill()/Close() hang on work that can no longer be cancelled.
//
// The analyzer reports any call to context.Background or context.TODO in a
// package whose import path ends in "cluster". Non-test files only: a test
// is its own root and may legitimately mint one (though t.Context() is
// usually better there too). The fix is always the same — thread the
// context from Start or the connection handler, deriving deadlines with
// context.WithTimeout where a bound is needed.
package clusterctx

import (
	"go/ast"
	"strings"

	"wilocator/internal/lint"
)

// Analyzer is the cluster context-propagation checker.
var Analyzer = &lint.Analyzer{
	Name: "clusterctx",
	Doc:  "flags context.Background/TODO in cluster packages; RPC paths must propagate deadline-carrying contexts",
	Run:  run,
}

func run(pass *lint.Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	path := pass.Pkg.Path()
	if path != "cluster" && !strings.HasSuffix(path, "/cluster") {
		return nil
	}
	for _, f := range pass.Files {
		// Tests are context roots; the production package is not.
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lint.Callee(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				return true
			}
			if fn.Name() == "Background" || fn.Name() == "TODO" {
				pass.Reportf(call.Pos(), "context.%s() in a cluster package severs cancellation: RPC and replication paths must propagate the caller's deadline-carrying context (thread it from Start or the connection handler, derive bounds with context.WithTimeout)", fn.Name())
			}
			return true
		})
	}
	return nil
}
