"""Replayable certificates: human-readable structured text with a stable
schema.  Replaying the embedded command must reproduce outcome, evidence
and list sections byte for byte; timing is excluded from comparison."""

from __future__ import annotations

from dataclasses import dataclass, field

SCHEMA = 1
HEADER = "palfree certificate"

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class Certificate:
    command: str
    outcome: str
    evidence: dict[str, str] = field(default_factory=dict)
    lists: dict[str, list[str]] = field(default_factory=dict)
    wall_ms: int | None = None
    schema: int = SCHEMA

    def put(self, key: str, value) -> None:
        self.evidence[str(key)] = str(value)

    def render(self) -> str:
        """The certificate text.  Raises ValueError rather than write a
        certificate that parse_certificate would read back differently."""
        _one_line("command", self.command)
        _one_line("outcome", self.outcome)
        for k, v in self.evidence.items():
            _one_line("evidence key", k)
            _one_line("evidence value", v)
            if ": " in k or _is_header(f"{k}: {v}"):
                raise ValueError(f"evidence {k!r}: {v!r} would not parse back")
        for name, items in self.lists.items():
            _one_line("section name", name)
            if name in ("evidence", "timing"):
                raise ValueError(f"section name {name!r} is reserved")
            for item in items:
                _one_line(f"[{name}] item", item)
                if _is_header(item) or not item.strip():
                    raise ValueError(f"[{name}] item {item!r} would not parse back")
        out = [f"{HEADER} {self.schema}",
               f"command: {self.command}",
               f"outcome: {self.outcome}",
               "[evidence]"]
        for k, v in self.evidence.items():
            out.append(f"{k}: {v}")
        for name, items in self.lists.items():
            out.append(f"[{name}]")
            out.extend(items)
        out.append("[timing]")
        out.append(f"wall-ms: {self.wall_ms if self.wall_ms is not None else 0}")
        return "\n".join(out) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.render())

    def comparable(self) -> tuple:
        return (self.schema, self.command, self.outcome,
                tuple(self.evidence.items()),
                tuple((k, tuple(v)) for k, v in self.lists.items()))

    @property
    def exit_code(self) -> int:
        return {PASS: 0, FAIL: 1, INCONCLUSIVE: 2}[self.outcome]


def _is_header(line: str) -> bool:
    return line.startswith("[") and line.endswith("]")


def _one_line(what: str, text: str) -> None:
    if text.splitlines() not in ([], [text]):
        raise ValueError(f"{what} {text!r} spans more than one line")


def parse_certificate(text: str) -> Certificate:
    lines = text.splitlines()
    if not lines or not lines[0].startswith(HEADER):
        raise ValueError("not a certificate file")
    schema = int(lines[0].split()[-1])
    if schema != SCHEMA:
        raise ValueError(f"unsupported certificate schema {schema}")
    if (len(lines) < 3 or not lines[1].startswith("command: ")
            or not lines[2].startswith("outcome: ")):
        raise ValueError("malformed certificate header")
    cert = Certificate(lines[1][len("command: "):],
                       lines[2][len("outcome: "):], schema=schema)
    section = None
    for line in lines[3:]:
        if _is_header(line):
            section = line[1:-1]
            if section not in ("evidence", "timing"):
                cert.lists[section] = []
            continue
        if not line.strip():
            continue
        if section == "evidence":
            k, _, v = line.partition(": ")
            cert.evidence[k] = v
        elif section == "timing":
            if line.startswith("wall-ms: "):
                cert.wall_ms = int(line[len("wall-ms: "):])
        elif section is not None:
            cert.lists[section].append(line)
    return cert


def read_certificate(path) -> Certificate:
    with open(path) as fh:
        return parse_certificate(fh.read())


@dataclass
class ReplayReport:
    matched: bool
    differences: list[str]


def compare_certificates(old: Certificate, new: Certificate) -> ReplayReport:
    """Matched when comparable() is equal, so the order of evidence keys and
    of sections counts too; one line per differing field, plus one when
    only the order differs."""
    matched = old.comparable() == new.comparable()
    diffs = []
    if old.command != new.command:
        diffs.append(f"command: {old.command!r} != {new.command!r}")
    if old.outcome != new.outcome:
        diffs.append(f"outcome: {old.outcome} != {new.outcome}")
    keys = set(old.evidence) | set(new.evidence)
    for k in sorted(keys):
        a, b = old.evidence.get(k), new.evidence.get(k)
        if a != b:
            diffs.append(f"evidence {k}: {a!r} != {b!r}")
    sections = set(old.lists) | set(new.lists)
    for s in sorted(sections):
        a, b = old.lists.get(s), new.lists.get(s)
        if a != b:
            diffs.append(f"section [{s}] differs")
    if not matched and not diffs:
        diffs.append("evidence keys or sections in a different order")
    return ReplayReport(matched, diffs)
