package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
)

// The stack configuration every workload runs on, fixed so numbers from
// different commits compare (README.md records it).
const (
	engineWorkers = 2
	engineProcs   = 4
	gatewayConns  = 2
	gatewayNodes  = 2
	drainTimeout  = 10 * time.Second
)

// submitters is the number of closed-loop generator goroutines, and the
// client's connection count: no more threads and sockets than cores.
func submitters() int { return min(2, runtime.NumCPU()) }

func engineConfig() engine.Config {
	return engine.Config{Workers: engineWorkers, Platform: core.DefaultPlatform(engineProcs)}
}

// node is one server on a loopback listener, booted the way
// internal/testkit does (without testing.TB): a daemon with an engine
// behind it (the reduxd shape) or the gateway with a cluster pool behind
// it (the reduxgw shape).
type node struct {
	eng  *engine.Engine // daemon only
	pool *cluster.Pool  // gateway only
	srv  *server.Server
	addr string
	done chan error
}

// serve starts n.srv on a fresh loopback port.
func (n *node) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.addr, n.done = ln.Addr().String(), make(chan error, 1)
	go func() { n.done <- n.srv.Serve(ln) }()
	return nil
}

func startDaemon() (*node, error) {
	eng, err := engine.New(engineConfig())
	if err != nil {
		return nil, err
	}
	n := &node{eng: eng, srv: server.New(eng, server.Config{})}
	if err := n.serve(); err != nil {
		eng.Close()
		return nil, err
	}
	return n, nil
}

func startGateway(backends []string) (*node, error) {
	pool, err := cluster.New(cluster.Config{Backends: backends, Conns: gatewayConns})
	if err != nil {
		return nil, err
	}
	n := &node{pool: pool, srv: server.NewWithDispatcher(pool, server.Config{})}
	if err := n.serve(); err != nil {
		pool.Close()
		return nil, err
	}
	return n, nil
}

// close drains the server, then closes what is behind it.
func (n *node) close() error {
	err := n.srv.Shutdown(drainTimeout)
	if serr := <-n.done; !errors.Is(serr, server.ErrServerClosed) {
		err = errors.Join(err, fmt.Errorf("serve %s: %w", n.addr, serr))
	}
	if n.eng != nil {
		n.eng.Close()
	}
	if n.pool != nil {
		n.pool.Close()
	}
	return err
}

// stack is the booted system under test. Exactly the fields the kind
// needs are set: eng for stackEngine; daemons+cl for stackRemote;
// daemons+gw+cl for stackGateway.
type stack struct {
	eng     *engine.Engine
	daemons []*node
	gw      *node
	cl      *client.Client
}

func bootStack(kind stackKind) (*stack, error) {
	s := &stack{}
	if kind == stackEngine {
		eng, err := engine.New(engineConfig())
		if err != nil {
			return nil, err
		}
		s.eng = eng
		return s, nil
	}
	n := 1
	if kind == stackGateway {
		n = gatewayNodes
	}
	addrs := make([]string, n)
	for i := range addrs {
		d, err := startDaemon()
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		s.daemons = append(s.daemons, d)
		addrs[i] = d.addr
	}
	front := addrs[0]
	if kind == stackGateway {
		gw, err := startGateway(addrs)
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		s.gw = gw
		front = gw.addr
	}
	cl, err := client.Dial(front, client.Config{Conns: submitters()})
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	s.cl = cl
	return s, nil
}

// close tears the stack down front to back so no in-flight job is cut:
// client, gateway, daemons, engine.
func (s *stack) close() error {
	var err error
	if s.cl != nil {
		err = errors.Join(err, s.cl.Close())
	}
	if s.gw != nil {
		err = errors.Join(err, s.gw.close())
	}
	for _, d := range s.daemons {
		err = errors.Join(err, d.close())
	}
	if s.eng != nil {
		s.eng.Close()
	}
	return err
}

// front is the server the client talks to (nil for stackEngine).
func (s *stack) front() *server.Server {
	switch {
	case s.gw != nil:
		return s.gw.srv
	case len(s.daemons) > 0:
		return s.daemons[0].srv
	}
	return nil
}

// engineStats sums the counters of every engine in the stack.
func (s *stack) engineStats() engine.Stats {
	if s.eng != nil {
		return s.eng.Stats()
	}
	var sum engine.Stats
	for _, d := range s.daemons {
		sum.Merge(d.eng.Stats())
	}
	return sum
}
