// Command fleetgen writes everything needed to launch a local (or
// containerized) snapd fleet: one JSON config per node plus launch
// scripts, for fleets from 2 to 1000 nodes.
//
// Usage:
//
//	fleetgen -n 5 -protocol typed -out fleet/
//	fleetgen -n 100 -protocol pif -corrupt -seed 7 -out fleet/ -mode shell,tmux
//	fleetgen -n 10 -protocol forward -topology line -out fleet/ -mode all
//
// Emitted into -out:
//
//	node-<i>.json          per-node snapd configs (loopback host:port layout)
//	up.sh / down.sh        background fleet with pid files and per-node logs
//	tmux.sh                the same fleet, one tmux window per node
//	docker-compose.yml     one service per node on a compose network
//	node-<i>.compose.json  configs for the compose layout (service DNS names)
//	Dockerfile             builds the snapd image the compose file runs
//
// The shell and tmux scripts expect the snapd binary next to the configs
// or on PATH (override with SNAPD=/path/to/snapd). All fleet-wide fields
// (protocol, seed, corruption, topology, fault plan) are baked into the
// configs, so the scripts carry no protocol logic; drive the running
// fleet with snapctl against any node's control address.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	snapstab "github.com/snapstab/snapstab"
	"github.com/snapstab/snapstab/internal/deploy"
)

func main() {
	var (
		n        = flag.Int("n", 5, "fleet size (2..1000)")
		protocol = flag.String("protocol", "typed", "cluster type: "+strings.Join(snapstab.Protocols, ", "))
		outDir   = flag.String("out", "", "output directory (required; created if missing)")
		mode     = flag.String("mode", "all", "comma-separated artifacts: shell, tmux, compose, or all")
		host     = flag.String("host", "127.0.0.1", "bind/dial host for the shell and tmux layouts")
		basePort = flag.Int("base-port", 9100, "first transport port (node i uses base+i)")
		ctrlPort = flag.Int("control-port", 8100, "first control port (node i uses base+i)")
		topology = flag.String("topology", "", "topology name or graph.txt path (empty = protocol default)")
		seed     = flag.Uint64("seed", 1, "cluster seed (fleet-wide)")
		corrupt  = flag.Bool("corrupt", false, "start every node from a corrupted initial configuration")
		logLevel = flag.String("log-level", "info", "snapd log level: debug, info, warn, error")
	)
	flag.Parse()
	if err := run(*n, *protocol, *outDir, *mode, *host, *basePort, *ctrlPort, *topology, *seed, *corrupt, *logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "fleetgen:", err)
		os.Exit(1)
	}
}

func run(n int, protocol, outDir, mode, host string, basePort, ctrlPort int, topology string, seed uint64, corrupt bool, logLevel string) error {
	if n < 2 || n > 1000 {
		return fmt.Errorf("fleet size %d outside 2..1000", n)
	}
	if outDir == "" {
		return fmt.Errorf("-out is required")
	}
	if basePort+n > 65536 || ctrlPort+n > 65536 {
		return fmt.Errorf("port range overflows 65535 (base %d / control %d, n %d)", basePort, ctrlPort, n)
	}
	modes := map[string]bool{}
	for _, m := range strings.Split(mode, ",") {
		switch m = strings.TrimSpace(m); m {
		case "all":
			modes["shell"], modes["tmux"], modes["compose"] = true, true, true
		case "shell", "tmux", "compose":
			modes[m] = true
		case "":
		default:
			return fmt.Errorf("unknown mode %q (want shell, tmux, compose, or all)", m)
		}
	}
	if len(modes) == 0 {
		return fmt.Errorf("no artifacts selected")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	base := deploy.Config{
		Protocol: protocol,
		Topology: topology,
		Seed:     seed,
		Corrupt:  corrupt,
		LogLevel: logLevel,
	}

	// Loopback layout: node i's transport on host:basePort+i, control on
	// host:ctrlPort+i. Shared by the shell and tmux scripts.
	local := make([]deploy.Config, n)
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("%s:%d", host, basePort+i)
	}
	for i := range local {
		c := base
		c.Node = i
		c.Peers = peers
		c.Listen = peers[i]
		c.Control = fmt.Sprintf("%s:%d", host, ctrlPort+i)
		local[i] = c
		if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("node-%d.json", i)), c); err != nil {
			return err
		}
	}
	// Validate once through the daemon's own gate so a bad flag
	// combination fails here, not at fleet launch.
	if err := local[0].Validate(); err != nil {
		return err
	}

	if modes["shell"] {
		if err := writeScript(filepath.Join(outDir, "up.sh"), upScript(n, ctrlPort, host)); err != nil {
			return err
		}
		if err := writeScript(filepath.Join(outDir, "down.sh"), downScript(n)); err != nil {
			return err
		}
	}
	if modes["tmux"] {
		if err := writeScript(filepath.Join(outDir, "tmux.sh"), tmuxScript(n, protocol)); err != nil {
			return err
		}
	}
	if modes["compose"] {
		// Compose layout: every container listens on the same ports;
		// peers dial service DNS names, and each node's control port is
		// published to the host at ctrlPort+i.
		composePeers := make([]string, n)
		for i := range composePeers {
			composePeers[i] = fmt.Sprintf("node%d:9100", i)
		}
		for i := 0; i < n; i++ {
			c := base
			c.Node = i
			c.Peers = composePeers
			c.Listen = ":9100"
			c.Control = ":8100"
			if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("node-%d.compose.json", i)), c); err != nil {
				return err
			}
		}
		if err := os.WriteFile(filepath.Join(outDir, "docker-compose.yml"), []byte(composeFile(n, ctrlPort, filepath.Base(absDir(outDir)))), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(outDir, "Dockerfile"), []byte(dockerfile), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("wrote a %d-node %s fleet to %s\n", n, protocol, outDir)
	fmt.Printf("drive it with: snapctl -addr %s:%d status\n", host, ctrlPort)
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeScript(path, body string) error {
	return os.WriteFile(path, []byte(body), 0o755)
}

// upScript launches every node in the background with pid files and
// per-node logs, then waits until every control endpoint answers.
func upScript(n, ctrlPort int, host string) string {
	return fmt.Sprintf(`#!/bin/sh
# Generated by fleetgen. Launches the %[1]d-node fleet in the background.
set -eu
cd "$(dirname "$0")"
SNAPD="${SNAPD:-snapd}"
command -v "$SNAPD" >/dev/null 2>&1 || SNAPD=./snapd
mkdir -p logs pids
i=0
while [ "$i" -lt %[1]d ]; do
  "$SNAPD" -config "node-$i.json" >"logs/node-$i.log" 2>&1 &
  echo $! >"pids/node-$i.pid"
  i=$((i + 1))
done
echo "launched %[1]d daemons; waiting for control endpoints"
i=0
while [ "$i" -lt %[1]d ]; do
  port=$((%[2]d + i))
  tries=0
  until snapctl -addr "%[3]s:$port" status >/dev/null 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
      echo "node $i (control %[3]s:$port) never answered; see logs/node-$i.log" >&2
      exit 1
    fi
    sleep 0.1
  done
  i=$((i + 1))
done
echo "fleet up; try: snapctl -addr %[3]s:%[2]d status"
`, n, ctrlPort, host)
}

// downScript stops the fleet from the pid files up.sh wrote.
func downScript(n int) string {
	return fmt.Sprintf(`#!/bin/sh
# Generated by fleetgen. Stops the %[1]d-node fleet launched by up.sh.
cd "$(dirname "$0")"
i=0
while [ "$i" -lt %[1]d ]; do
  if [ -f "pids/node-$i.pid" ]; then
    kill "$(cat "pids/node-$i.pid")" 2>/dev/null || true
    rm -f "pids/node-$i.pid"
  fi
  i=$((i + 1))
done
echo "fleet down"
`, n)
}

// tmuxScript opens one tmux window per node, so each daemon's log
// stream is a window in one session.
func tmuxScript(n int, protocol string) string {
	return fmt.Sprintf(`#!/bin/sh
# Generated by fleetgen. Runs the %[1]d-node fleet under tmux, one
# window per node. Attach with: tmux attach -t %[2]s
set -eu
cd "$(dirname "$0")"
SNAPD="${SNAPD:-snapd}"
command -v "$SNAPD" >/dev/null 2>&1 || SNAPD=./snapd
SESSION="${SESSION:-%[2]s}"
tmux new-session -d -s "$SESSION" -n node-0 "$SNAPD -config node-0.json"
i=1
while [ "$i" -lt %[1]d ]; do
  tmux new-window -t "$SESSION" -n "node-$i" "$SNAPD -config node-$i.json"
  i=$((i + 1))
done
echo "fleet running in tmux session $SESSION (tmux attach -t $SESSION)"
`, n, "snapfleet-"+protocol)
}

// absDir resolves dir for basename computation; on failure the relative
// path's base is still usable.
func absDir(dir string) string {
	if a, err := filepath.Abs(dir); err == nil {
		return a
	}
	return dir
}

// composeFile emits one service per node; node i's control endpoint is
// published to the host at ctrlPort+i. The build context is the fleet
// directory's parent — the repository root when the fleet was generated
// into a directory directly inside the checkout (fleetgen -out fleet/).
func composeFile(n, ctrlPort int, fleetBase string) string {
	var b strings.Builder
	b.WriteString("# Generated by fleetgen.\n")
	b.WriteString("# Build and launch (from this directory, inside the repository checkout):\n")
	b.WriteString("#   docker compose up --build\n")
	b.WriteString("services:\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `  node%[1]d:
    build:
      context: ..
      dockerfile: %[3]s/Dockerfile
    command: ["-config", "/fleet/node-%[1]d.compose.json"]
    volumes:
      - .:/fleet:ro
    ports:
      - "%[2]d:8100"
`, i, ctrlPort+i, fleetBase)
	}
	return b.String()
}

const dockerfile = `# Generated by fleetgen. Builds snapd from the repository the fleet
# directory lives in (the compose file sets the build context to the
# fleet directory's parent).
FROM golang:1.22 AS build
WORKDIR /src
COPY . .
RUN CGO_ENABLED=0 go build -o /out/snapd ./cmd/snapd

FROM gcr.io/distroless/static-debian12
COPY --from=build /out/snapd /usr/local/bin/snapd
ENTRYPOINT ["/usr/local/bin/snapd"]
`
