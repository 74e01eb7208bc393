// tracedump renders the trace of a monadic program as a tree, reproducing
// the paper's Figure 4: the server below forks a client per iteration, and
// forcing each node of its (lazy) trace runs the thread up to its next
// system call. The dump *is* the event abstraction — what a scheduler
// traverses.
package main

import (
	"flag"
	"fmt"
	"strings"

	"hybrid"
	"hybrid/internal/core"
)

func main() {
	depth := flag.Int("depth", 12, "number of trace nodes to force")
	flag.Parse()

	// The paper's Figure 4 program:
	//
	//	server = do { sys_call_1; fork client; server }
	//	client = do { sys_call_2 }
	client := hybrid.Do(func() {}) // sys_call_2
	var server func() hybrid.M[hybrid.Unit]
	server = func() hybrid.M[hybrid.Unit] {
		// The recursion sits inside a continuation, so the infinite
		// program is constructed lazily as the trace is forced — the
		// role lazy evaluation plays in the paper.
		return hybrid.Bind(hybrid.Do(func() {}) /* sys_call_1 */, func(hybrid.Unit) hybrid.M[hybrid.Unit] {
			return hybrid.Then(hybrid.Fork(client), server())
		})
	}

	fmt.Println("trace of: server = do { sys_call_1; fork client; server }")
	fmt.Println()
	dump(hybrid.BuildTrace(server()), 0, *depth)
}

// dump forces and prints trace nodes. Forcing an NBIO node (stepping its
// record) runs the thread to its next system call — laziness made explicit.
func dump(tr hybrid.Trace, indent, budget int) {
	for budget > 0 {
		budget--
		pad := strings.Repeat("    ", indent)
		switch n := tr.(type) {
		case core.Stepper:
			fmt.Printf("%sSYS_NBIO\n", pad)
			tr = n.Step() // force: run the thread one step
		case *core.ForkNode:
			fmt.Printf("%sSYS_FORK\n", pad)
			fmt.Printf("%s├─ child:\n", pad)
			dump(core.BuildTrace(n.Child), indent+1, 2)
			fmt.Printf("%s└─ parent continues:\n", pad)
			tr = n.Cont
		case *core.YieldNode:
			fmt.Printf("%sSYS_YIELD\n", pad)
			tr = n.Cont
		case *core.RetNode:
			fmt.Printf("%sSYS_RET\n", pad)
			return
		case *core.ThrowNode:
			fmt.Printf("%sSYS_THROW(%v)\n", pad, n.Err)
			return
		case *core.CatchNode:
			fmt.Printf("%sSYS_CATCH\n", pad)
			tr = n.Body
		case *core.WaitNode:
			fmt.Printf("%sSYS_WAIT (parked until an event wakes it)\n", pad)
			return
		case *core.BlioNode:
			fmt.Printf("%sSYS_BLIO\n", pad)
			tr = n.Effect.Step()
		default:
			fmt.Printf("%s%T\n", pad, tr)
			return
		}
	}
	fmt.Printf("%s… (budget exhausted; the trace is infinite)\n", strings.Repeat("    ", indent))
}
