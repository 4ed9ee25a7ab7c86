"""``python -m repro repl`` — an interactive shell over analysis sessions.

A thin stdlib client for the daemon's session API: one
:class:`~repro.serve.client.ServeClient`, one open
:class:`~repro.serve.client.SessionHandle` at a time, and a small
command language mapping 1:1 onto the ``cati-tool-call/1`` tools.
Line editing and tab completion come from :mod:`readline` when the
platform has it; the REPL degrades to plain ``input()`` otherwise.

Two modes share every code path:

- **interactive** — a ``cati>`` prompt; errors print and the loop
  continues.
- **scripted** — ``--exec "open demo 7; functions; annotate 0"`` runs
  a ``;``-separated command list and exits non-zero on the first
  failure.  ``tests/test_analysis.py`` drives it through the tools and
  through a TTL expiry.

Sessions are server-side state, so they can vanish between commands
(TTL expiry, LRU eviction, a worker crash behind the router).  The
daemon answers 410 for any unresolvable session id; the REPL prints a
``session gone`` notice, re-opens with the last ``open`` arguments, and
retries the command once — making expiry an inconvenience instead of a
lost transcript.
"""

from __future__ import annotations

import json
import shlex
import time

from repro.serve.client import ServeClient, ServeClientError, SessionHandle

try:  # pragma: no cover - platform dependent
    import readline
except ImportError:  # pragma: no cover - Windows / minimal builds
    readline = None

PROMPT = "cati> "

#: command -> (usage, one-line help), in help display order.
COMMANDS = {
    "help": ("help", "show this table"),
    "open": ("open demo [seed [opt]] | open path FILE",
             "open an analysis session on the server"),
    "info": ("info", "summarize the open session"),
    "functions": ("functions", "list functions with variable counts"),
    "vars": ("vars", "list every variable id, one per line"),
    "dis": ("dis [func]", "plain disassembly of one function"),
    "type": ("type VAR|%i", "type one variable (micro-batch path)"),
    "explain": ("explain VAR|%i [vuc]", "occlusion epsilons for one VUC"),
    "annotate": ("annotate [func]", "disassembly annotated with types"),
    "layouts": ("layouts", "struct layouts recovered from the session"),
    "health": ("health", "server /healthz snapshot"),
    "sleep": ("sleep SECONDS", "pause (for scripting TTL tests)"),
    "close": ("close", "close the open session"),
    "quit": ("quit | exit", "leave the repl"),
}


class ReplError(RuntimeError):
    """A user-level command failure (bad args, no session, server error)."""


class Repl:
    """One client + at-most-one session, driven by text commands."""

    def __init__(self, client: ServeClient, *, out=print) -> None:
        self.client = client
        self.out = out
        self.handle: SessionHandle | None = None
        #: The request body of the last successful ``open`` — replayed
        #: to recover when the server answers 410 for the session.
        self._last_open: dict | None = None

    # -- session plumbing --------------------------------------------------------

    def _require_session(self) -> SessionHandle:
        if self.handle is None:
            raise ReplError("no open session — run `open demo` or `open path FILE`")
        return self.handle

    def _resolve_variable(self, token: str) -> str:
        """Accept a variable id verbatim or ``%i`` as an index into vars."""
        handle = self._require_session()
        if token.startswith("%"):
            names = handle.variables
            try:
                index = int(token[1:])
                return names[index]
            except (ValueError, IndexError):
                raise ReplError(
                    f"{token!r} does not index the {len(names)} session variables"
                    ) from None
        return token

    def _call(self, tool: str, **args) -> dict:
        """One tool call with a single 410 → re-open → retry cycle."""
        handle = self._require_session()
        try:
            return handle.call(tool, **args)
        except ServeClientError as error:
            if error.status != 410 or self._last_open is None:
                raise
            self.out(f"session gone (HTTP 410): {error}; re-opening")
            self.handle = self.client.open_session(self._last_open)
            return self.handle.call(tool, **args)

    # -- commands ----------------------------------------------------------------

    def cmd_help(self, args: list[str]) -> None:
        width = max(len(usage) for usage, _ in COMMANDS.values())
        for usage, text in COMMANDS.values():
            self.out(f"  {usage:{width}s}  {text}")

    def cmd_open(self, args: list[str]) -> None:
        if not args:
            raise ReplError("usage: open demo [seed [opt]] | open path FILE")
        request: dict
        if args[0] == "demo":
            demo = {}
            if len(args) > 1:
                demo["seed"] = int(args[1])
            if len(args) > 2:
                demo["opt_level"] = int(args[2])
            request = {"demo": demo}
        elif args[0] == "path":
            if len(args) != 2:
                raise ReplError("usage: open path FILE")
            # The job file is read here, on the client: the server never
            # opens a path a client names.
            try:
                with open(args[1], encoding="utf-8") as handle:
                    request = json.load(handle)
            except OSError as error:
                raise ReplError(f"cannot read job file: {error}") from None
            if not isinstance(request, dict):
                raise ReplError(f"job file {args[1]} must hold a JSON object")
        else:
            raise ReplError(f"unknown open form {args[0]!r} (demo | path)")
        self.handle = self.client.open_session(request)
        self._last_open = request
        info = self.handle.info
        self.out(f"session {info['id']} open: {info['binary']} "
                 f"({info['n_functions']} functions, "
                 f"{info['n_variables']} variables, "
                 f"{info['n_windows']} windows, ttl {info['ttl_s']:g}s)")

    def cmd_info(self, args: list[str]) -> None:
        info = self._require_session().info
        self.out(json.dumps(info, indent=2, sort_keys=True))

    def cmd_functions(self, args: list[str]) -> None:
        result = self._call("list_functions")
        for func in result["functions"]:
            self.out(f"  [{func['index']}] {func['name']} @ {func['address']:#x}  "
                     f"{func['n_instructions']} instructions, "
                     f"{len(func['variables'])} variables")

    def cmd_vars(self, args: list[str]) -> None:
        for index, name in enumerate(self._require_session().variables):
            self.out(f"  %{index}  {name}")

    def _function_ref(self, args: list[str]):
        if not args:
            return 0
        try:
            return int(args[0])
        except ValueError:
            return args[0]

    def cmd_dis(self, args: list[str]) -> None:
        result = self._call("disassemble", function=self._function_ref(args))
        self.out(f"{result['function']}:")
        for line in result["lines"]:
            self.out(line)

    def cmd_type(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ReplError("usage: type VAR|%i")
        variable_id = self._resolve_variable(args[0])
        result = self._call("type_variable", variable_id=variable_id)
        prediction = result["prediction"]
        self.out(f"  {prediction['variable_id']}: {prediction['type']} "
                 f"(confidence {prediction['confidence']:.4f}, "
                 f"{prediction['n_vucs']} VUCs)")

    def cmd_explain(self, args: list[str]) -> None:
        if not args or len(args) > 2:
            raise ReplError("usage: explain VAR|%i [vuc]")
        variable_id = self._resolve_variable(args[0])
        vuc = int(args[1]) if len(args) > 1 else 0
        result = self._call("explain", variable_id=variable_id, vuc=vuc)
        self.out(f"  {result['variable_id']} vuc {result['vuc']}/{result['n_vucs']}: "
                 f"{result['predicted']} "
                 f"(base confidence {result['base_confidence']:.4f})")
        for line in result["lines"]:
            self.out(line)

    def cmd_annotate(self, args: list[str]) -> None:
        result = self._call("annotate_disassembly",
                            function=self._function_ref(args))
        self.out(f"{result['function']} (stripped) with inferred types:")
        for line in result["lines"]:
            self.out(line)

    def cmd_layouts(self, args: list[str]) -> None:
        result = self._call("struct_layouts")
        self.out(json.dumps(result, indent=2, sort_keys=True))

    def cmd_health(self, args: list[str]) -> None:
        self.out(json.dumps(self.client.health(), indent=2, sort_keys=True))

    def cmd_sleep(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ReplError("usage: sleep SECONDS")
        time.sleep(float(args[0]))

    def cmd_close(self, args: list[str]) -> None:
        handle = self._require_session()
        try:
            handle.close()
        except ServeClientError as error:
            if error.status != 410:
                raise
        self.out(f"session {handle.id} closed")
        self.handle = None

    # -- dispatch ----------------------------------------------------------------

    def run_command(self, line: str) -> bool:
        """Execute one command line; return False when the REPL should exit."""
        try:
            words = shlex.split(line, comments=True)
        except ValueError as error:
            raise ReplError(f"cannot parse command: {error}") from None
        if not words:
            return True
        command, args = words[0], words[1:]
        if command in ("quit", "exit"):
            return False
        method = getattr(self, f"cmd_{command}", None)
        if method is None:
            raise ReplError(f"unknown command {command!r} (try `help`)")
        try:
            method(args)
        except ServeClientError as error:
            raise ReplError(str(error)) from error
        except (ValueError, KeyError) as error:
            raise ReplError(f"{type(error).__name__}: {error}") from error
        return True

    def completer(self, text: str, state: int) -> str | None:
        """Readline tab completion over command names and %i variables."""
        candidates = [name for name in COMMANDS if name.startswith(text)]
        candidates += ["exit"] if "exit".startswith(text) else []
        if text.startswith("%") and self.handle is not None:
            candidates += [f"%{i}" for i in range(len(self.handle.variables))
                           if f"%{i}".startswith(text)]
        matches = sorted(set(candidates))
        return matches[state] if state < len(matches) else None


def run_repl(host: str, port: int, *, timeout: float = 300.0,
             exec_commands: str | None = None) -> int:
    """Entry point used by the ``repro repl`` CLI command."""
    client = ServeClient(host, port, timeout=timeout)
    repl = Repl(client)
    if exec_commands is not None:
        for line in exec_commands.split(";"):
            line = line.strip()
            if not line:
                continue
            try:
                if not repl.run_command(line):
                    return 0
            except ReplError as error:
                print(f"error: {error}")
                return 1
        return 0
    if readline is not None:  # pragma: no branch - trivial
        readline.set_completer(repl.completer)
        readline.set_completer_delims(" \t")
        readline.parse_and_bind("tab: complete")
    print(f"connected to {host}:{port} — `help` lists commands, `quit` leaves")
    while True:
        try:
            line = input(PROMPT)
        except EOFError:
            print()
            return 0
        except KeyboardInterrupt:
            print()
            continue
        try:
            if not repl.run_command(line):
                return 0
        except ReplError as error:
            print(f"error: {error}")


__all__ = ["COMMANDS", "PROMPT", "Repl", "ReplError", "run_repl"]
