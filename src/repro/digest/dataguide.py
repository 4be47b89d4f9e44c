"""JSON dataguides: data-derived structural summaries of document sources.

When a source has no declared schema, the paper uses "data-derived
structural summaries, i.e., XML or JSON Dataguides" (§2.2).  A dataguide
records every dotted path observed in a document collection together with
the value types and occurrence counts at that path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

from repro.fulltext.document import Document


@dataclass
class PathInfo:
    """What the dataguide knows about one dotted path."""

    path: str
    count: int = 0
    types: set[str] = field(default_factory=set)
    sample_values: list[object] = field(default_factory=list)
    max_samples: int = 5

    def observe(self, value: object) -> None:
        """Record one occurrence of ``value`` at this path."""
        self.count += 1
        self.types.add(type(value).__name__)
        if len(self.sample_values) < self.max_samples and value is not None:
            self.sample_values.append(value)

    @property
    def is_numeric(self) -> bool:
        return self.types <= {"int", "float"} and bool(self.types)


class JSONDataguide:
    """Structural summary of a JSON document collection."""

    def __init__(self, name: str = "dataguide"):
        self.name = name
        self.paths: dict[str, PathInfo] = {}
        self.document_count = 0

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, documents: Iterable[Document | dict[str, Any]],
              name: str = "dataguide") -> "JSONDataguide":
        """Build a dataguide from documents (raw dicts are accepted)."""
        guide = cls(name=name)
        for doc in documents:
            guide.observe(doc)
        return guide

    @classmethod
    def from_leaves(cls, documents: Iterable[Iterable[tuple[str, object]]],
                    name: str = "dataguide") -> "JSONDataguide":
        """Build a dataguide from already flattened documents.

        Each item is one document's ``(dotted_path, value)`` leaves, as
        :meth:`Document.flat_fields` yields them — a store that indexes
        its documents keeps them, so no document is flattened twice.
        """
        guide = cls(name=name)
        for leaves in documents:
            guide.observe_leaves(leaves)
        return guide

    def observe(self, document: Document | dict[str, Any]) -> None:
        """Add one document's paths to the dataguide."""
        if isinstance(document, Document):
            leaves = document.flat_fields()
        else:
            leaves = Document(doc_id="_", fields=dict(document)).flat_fields()
        self.observe_leaves(leaves)

    def observe_leaves(self, leaves: Iterable[tuple[str, object]]) -> None:
        """Add one flattened document's paths to the dataguide."""
        self.document_count += 1
        for path, value in leaves:
            info = self.paths.get(path)
            if info is None:
                info = PathInfo(path=path)
                self.paths[path] = info
            info.observe(value)

    def extended(self, documents: Iterable[Iterable[tuple[str, object]]]) -> "JSONDataguide":
        """A copy of this dataguide that also observed ``documents``.

        ``documents`` are flattened leaves, as for :meth:`from_leaves`.
        This guide is left unchanged (store snapshots share it), and the
        copy equals a fresh build over the old documents followed by the
        new ones.
        """
        guide = type(self)(name=self.name)
        guide.document_count = self.document_count
        guide.paths = {path: replace(info, types=set(info.types),
                                     sample_values=list(info.sample_values))
                       for path, info in self.paths.items()}
        for leaves in documents:
            guide.observe_leaves(leaves)
        return guide

    # ------------------------------------------------------------------
    def path_names(self) -> list[str]:
        """Every observed dotted path, sorted."""
        return sorted(self.paths)

    def info(self, path: str) -> PathInfo | None:
        """Return the :class:`PathInfo` of ``path`` if observed."""
        return self.paths.get(path)

    def coverage(self, path: str) -> float:
        """Fraction of documents in which ``path`` occurs at least once."""
        info = self.paths.get(path)
        if info is None or self.document_count == 0:
            return 0.0
        return min(1.0, info.count / self.document_count)

    def parent_children(self) -> dict[str, list[str]]:
        """Tree structure: parent path -> direct child paths."""
        children: dict[str, list[str]] = defaultdict(list)
        for path in self.path_names():
            if "." in path:
                parent = path.rsplit(".", 1)[0]
            else:
                parent = ""
            children[parent].append(path)
        return dict(children)

    def to_text(self) -> str:
        """Indented textual rendering of the dataguide tree."""
        lines = [f"dataguide {self.name} ({self.document_count} documents)"]
        for path in self.path_names():
            info = self.paths[path]
            depth = path.count(".")
            types = ",".join(sorted(info.types))
            lines.append(f"{'  ' * (depth + 1)}{path} [{types}] x{info.count}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.paths)
