// Replicated key-value store: the paper's introduction motivates the
// hybrid model with "Internet-scale data storage applications". This
// example runs a primary and two backup replicas, each an STM-backed
// store served by monadic threads over the application-level TCP stack
// on a lossy simulated network.
//
// The primary applies each SET transactionally, forwards it synchronously
// to both backups (primary-backup replication), and only then
// acknowledges the client. GETs may be served by any replica. After a
// burst of concurrent client traffic, the example verifies that all three
// replicas converged to identical state — TCP's in-order exactly-once
// stream is what makes the naive protocol correct under packet loss.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hybrid"
	"hybrid/internal/core"
	"hybrid/internal/netsim"
	"hybrid/internal/stm"
	"hybrid/internal/tcp"
	"hybrid/internal/vclock"
)

const (
	port      = 7000
	clients   = 8
	opsPerCli = 25
)

// store is one replica's state: a TVar-held map, copy-on-write so
// transactions stay pure.
type store struct {
	name string
	data *stm.TVar[map[string]string]
}

func newStore(name string) *store {
	return &store{name: name, data: stm.NewTVar(map[string]string{})}
}

func (s *store) set(key, val string) hybrid.M[hybrid.Unit] {
	return stm.Atomically(func(tx *stm.Tx) hybrid.Unit {
		old := stm.Read(tx, s.data)
		next := make(map[string]string, len(old)+1)
		for k, v := range old {
			next[k] = v
		}
		next[key] = val
		stm.Write(tx, s.data, next)
		return hybrid.Unit{}
	})
}

func (s *store) get(key string) hybrid.M[string] {
	return stm.Atomically(func(tx *stm.Tx) string {
		return stm.Read(tx, s.data)[key]
	})
}

// The wire protocol is line-oriented: "SET k v\n" → "OK\n",
// "GET k\n" → "VAL v\n".

// readLine accumulates bytes to a newline.
func readLine(c *tcp.Conn) hybrid.M[string] {
	buf := make([]byte, 1)
	var line []byte
	var loop func() hybrid.M[string]
	loop = func() hybrid.M[string] {
		return hybrid.Bind(c.ReadM(buf), func(n int) hybrid.M[string] {
			if n == 0 {
				return hybrid.Return("") // EOF
			}
			if buf[0] == '\n' {
				return hybrid.Return(string(line))
			}
			line = append(line, buf[0])
			return loop()
		})
	}
	return loop()
}

func writeLine(c *tcp.Conn, s string) hybrid.M[hybrid.Unit] {
	return hybrid.Bind(c.WriteM([]byte(s+"\n")), func(int) hybrid.M[hybrid.Unit] {
		return hybrid.Skip
	})
}

// serve runs one replica's request loop on an accepted connection.
// forward, when non-nil, replicates SETs before acknowledging.
func serve(st *store, c *tcp.Conn, forward func(cmd string) hybrid.M[hybrid.Unit]) hybrid.M[hybrid.Unit] {
	var loop func() hybrid.M[hybrid.Unit]
	loop = func() hybrid.M[hybrid.Unit] {
		return hybrid.Bind(readLine(c), func(line string) hybrid.M[hybrid.Unit] {
			if line == "" {
				return c.CloseM()
			}
			parts := strings.SplitN(line, " ", 3)
			switch parts[0] {
			case "SET":
				if len(parts) != 3 {
					return hybrid.Then(writeLine(c, "ERR"), loop())
				}
				apply := st.set(parts[1], parts[2])
				if forward != nil {
					apply = hybrid.Seq(apply, forward(line))
				}
				return hybrid.Seq(apply, writeLine(c, "OK"), loop())
			case "GET":
				if len(parts) != 2 {
					return hybrid.Then(writeLine(c, "ERR"), loop())
				}
				return hybrid.Bind(st.get(parts[1]), func(v string) hybrid.M[hybrid.Unit] {
					return hybrid.Then(writeLine(c, "VAL "+v), loop())
				})
			default:
				return hybrid.Then(writeLine(c, "ERR"), loop())
			}
		})
	}
	return hybrid.Catch(loop(), func(error) hybrid.M[hybrid.Unit] { return hybrid.Skip })
}

func main() {
	clk := vclock.NewVirtual()
	net := netsim.New(clk, 11)
	link := netsim.Ethernet100()
	link.LossProb = 0.03

	rt := hybrid.NewRuntime(hybrid.Options{Clock: clk})
	defer rt.Shutdown()
	cfg := tcp.Config{RTOMin: 10 * time.Millisecond, InitialRTO: 20 * time.Millisecond}

	mkStack := func(name string) *tcp.Stack {
		h, err := net.Host(name, link)
		if err != nil {
			panic(err)
		}
		return tcp.NewStack(h, cfg)
	}
	primary := mkStack("primary")
	backups := []*tcp.Stack{mkStack("backup-1"), mkStack("backup-2")}
	clientNet := mkStack("clients")

	stores := []*store{newStore("primary"), newStore("backup-1"), newStore("backup-2")}

	// Backups accept replication streams from the primary.
	for i, b := range backups {
		st := stores[i+1]
		l, err := b.Listen(port)
		if err != nil {
			panic(err)
		}
		rt.Spawn(hybrid.Forever(hybrid.Bind(l.AcceptM(), func(c *tcp.Conn) hybrid.M[hybrid.Unit] {
			return hybrid.Fork(serve(st, c, nil))
		})))
	}

	// The primary keeps one persistent replication connection per backup,
	// serialized by a mutex (a single replication stream).
	replConns := make([]*tcp.Conn, len(backups))
	replMu := hybrid.NewMutex()
	forward := func(cmd string) hybrid.M[hybrid.Unit] {
		return replMu.WithLock(hybrid.ForEach(replConns, func(rc *tcp.Conn) hybrid.M[hybrid.Unit] {
			return hybrid.Seq(
				writeLine(rc, cmd),
				hybrid.Bind(readLine(rc), func(string) hybrid.M[hybrid.Unit] { return hybrid.Skip }),
			)
		}))
	}

	l, err := primary.Listen(port)
	if err != nil {
		panic(err)
	}
	setup := hybrid.ForN(len(backups), func(i int) hybrid.M[hybrid.Unit] {
		return hybrid.Bind(primary.ConnectM(backups[i].Addr(), port), func(c *tcp.Conn) hybrid.M[hybrid.Unit] {
			return hybrid.Do(func() { replConns[i] = c })
		})
	})
	rt.Spawn(hybrid.Seq(setup, hybrid.Forever(hybrid.Bind(l.AcceptM(), func(c *tcp.Conn) hybrid.M[hybrid.Unit] {
		return hybrid.Fork(serve(stores[0], c, forward))
	}))))

	// Concurrent clients write disjoint key ranges and read them back.
	wg := hybrid.NewWaitGroup(clients)
	var acked int
	countMu := hybrid.NewMutex()
	for ci := 0; ci < clients; ci++ {
		ci := ci
		rt.Spawn(core.Finally(hybrid.Catch(
			hybrid.Bind(clientNet.ConnectM("primary", port), func(c *tcp.Conn) hybrid.M[hybrid.Unit] {
				return hybrid.Seq(
					hybrid.ForN(opsPerCli, func(op int) hybrid.M[hybrid.Unit] {
						key := fmt.Sprintf("c%d-k%d", ci, op)
						val := fmt.Sprintf("v%d.%d", ci, op)
						return hybrid.Seq(
							writeLine(c, "SET "+key+" "+val),
							hybrid.Bind(readLine(c), func(resp string) hybrid.M[hybrid.Unit] {
								if resp != "OK" {
									return hybrid.Throw[hybrid.Unit](fmt.Errorf("SET got %q", resp))
								}
								return countMu.WithLock(hybrid.Do(func() { acked++ }))
							}),
						)
					}),
					c.CloseM(),
				)
			}),
			func(err error) hybrid.M[hybrid.Unit] {
				return hybrid.Do(func() { fmt.Printf("client %d failed: %v\n", ci, err) })
			},
		), wg.Done()))
	}

	start := clk.Now()
	done := make(chan struct{})
	var end vclock.Time
	rt.Spawn(hybrid.Then(wg.Wait(), hybrid.Do(func() {
		end = clk.Now()
		close(done)
	})))
	<-done

	// Verify convergence: all replicas hold identical state.
	snapshots := make([]map[string]string, 3)
	for i, st := range stores {
		snapshots[i] = stm.ReadNow(st.data)
	}
	converged := true
	for i := 1; i < 3; i++ {
		if len(snapshots[i]) != len(snapshots[0]) {
			converged = false
		}
		for k, v := range snapshots[0] {
			if snapshots[i][k] != v {
				converged = false
			}
		}
	}
	keys := make([]string, 0, len(snapshots[0]))
	for k := range snapshots[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	fmt.Printf("acknowledged SETs: %d/%d over %d clients (%.0f%% packet loss on the wire)\n",
		acked, clients*opsPerCli, clients, link.LossProb*100)
	fmt.Printf("replica sizes:     primary=%d backup-1=%d backup-2=%d\n",
		len(snapshots[0]), len(snapshots[1]), len(snapshots[2]))
	fmt.Printf("converged:         %v (in %v virtual)\n",
		converged, time.Duration(end-start).Round(time.Millisecond))
	if len(keys) > 0 {
		fmt.Printf("sample:            %s=%s … %s=%s\n",
			keys[0], snapshots[0][keys[0]], keys[len(keys)-1], snapshots[0][keys[len(keys)-1]])
	}
}
