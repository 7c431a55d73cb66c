"""Check reports: named pass/fail items with witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckItem:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Report:
    title: str
    items: list = field(default_factory=list)

    def add(self, name, ok, detail=""):
        self.items.append(CheckItem(name, bool(ok), detail))
        return ok

    def check(self, name, cases, failure, detail=""):
        """Run failure(case) over cases in order; the first non-empty string
        it returns is recorded as the witness of a failed item, and the
        remaining cases are not visited.  Otherwise the item passes with
        detail."""
        for case in cases:
            witness = failure(case)
            if witness:
                return self.add(name, False, witness)
        return self.add(name, True, detail)

    @property
    def ok(self):
        return all(it.ok for it in self.items)

    def first_failure(self):
        for it in self.items:
            if not it.ok:
                return it
        return None

    def merge(self, other, prefix=""):
        for it in other.items:
            self.items.append(CheckItem(prefix + it.name, it.ok, it.detail))

    def lines(self):
        out = [f"{self.title}: {'PASS' if self.ok else 'FAIL'}"]
        for it in self.items:
            mark = "ok" if it.ok else "FAIL"
            detail = f"  [{it.detail}]" if it.detail else ""
            out.append(f"  {mark:4} {it.name}{detail}")
        return out

    def __str__(self):
        return "\n".join(self.lines())
