//! Numbered requests: one prompt that asks what several prompts ask, the
//! batch prompting of SEED (PAPERS.md) and of Cheng, Kasai & Yu, "Batch
//! Prompting: Efficient Inference with Large Language Model APIs".
//!
//! Prompts that judge one pair each repeat the same instruction and the same
//! format pin; a [`ListRequest`] sends those lines once. It is the one home
//! of the format: [`ListRequest::render`] writes it, `ListRequest::parse`
//! reads it back exactly, and [`ListRequest::answers`] reads the numbered
//! answer lines a model gives it.
//!
//! The simulated model answers each member exactly as it answers that
//! member's own prompt, seeded by that prompt, so a member's verdict is the
//! one it gets asked alone. DESIGN.md §1 states this as an assumption: a real
//! provider does not guarantee it.

use std::borrow::Cow;

/// The text that opens every numbered request. The router checks it before
/// any substring cue: the members' shared lines may say anything.
pub(crate) const HEADER: &str = "Numbered request:";

/// The line that closes every numbered request: what to answer, and the
/// mark that the request arrived whole.
const FOOTER: &str = "Answer each numbered prompt on one line, as \"n: answer\".";

/// Several prompts asked as one: a header line, the lines every member opens
/// with and the lines every member closes with (once each), then each
/// member's own lines under its number, and a closing line that asks for
/// one numbered answer line per member.
///
/// ```text
/// Numbered request: 2 prompts, 1 shared lines first, 1 last.
/// Please determine if the following two records refer to the same entity.
/// Respond with exactly `yes` or `no`, nothing else.
/// #1 (2 lines)
/// Record A: name: Hoppy Badger
/// Record B: name: hoppy badgr
/// #2 (2 lines)
/// Record A: name: Stout Owl
/// Record B: name: Pale Heron
/// Answer each numbered prompt on one line, as "n: answer".
/// ```
///
/// Member `n`'s prompt is its opening lines, its own lines and its closing
/// lines, joined by newlines: every byte of every member, blank lines and
/// colons included, comes back from the rendered text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListRequest<'a> {
    prompts: Vec<Cow<'a, str>>,
}

impl<'a> ListRequest<'a> {
    /// Ask `prompts` as one request, in order.
    pub fn new(prompts: &'a [String]) -> Self {
        ListRequest {
            prompts: prompts.iter().map(|prompt| Cow::Borrowed(prompt.as_str())).collect(),
        }
    }

    /// The member prompts, in order.
    pub(crate) fn prompts(&self) -> impl Iterator<Item = &str> {
        self.prompts.iter().map(|prompt| prompt.as_ref())
    }

    /// The request's text (see [`ListRequest`] for the layout).
    pub fn render(&self) -> String {
        let lines: Vec<Vec<&str>> = self.prompts().map(|p| p.split('\n').collect()).collect();
        let shortest = lines.iter().map(Vec::len).min().unwrap_or(0);
        fn from_end<'s>(member: &[&'s str], j: usize) -> &'s str {
            member[member.len() - 1 - j]
        }
        let lead = (0..shortest).take_while(|&i| lines.iter().all(|l| l[i] == lines[0][i])).count();
        let trail = (0..shortest - lead)
            .take_while(|&j| lines.iter().all(|l| from_end(l, j) == from_end(&lines[0], j)))
            .count();
        let mut out = header(lines.len(), lead, trail);
        let mut push = |line: &str| {
            out.push('\n');
            out.push_str(line);
        };
        if let Some(first) = lines.first() {
            first[..lead].iter().chain(&first[first.len() - trail..]).for_each(|line| push(line));
        }
        for (index, member) in lines.iter().enumerate() {
            let own = &member[lead..member.len() - trail];
            push(&marker(index + 1, own.len()));
            own.iter().for_each(|line| push(line));
        }
        push(FOOTER);
        out
    }

    /// Read back a request [`ListRequest::render`] wrote; `None` for any
    /// other text, a truncated request included.
    pub(crate) fn parse(text: &str) -> Option<ListRequest<'static>> {
        let mut lines = text.split('\n');
        let head = lines.next()?;
        let counts = head.strip_prefix(HEADER)?.strip_prefix(' ')?;
        let (members, rest) = counts.split_once(" prompts, ")?;
        let (lead, rest) = rest.split_once(" shared lines first, ")?;
        let trail = rest.strip_suffix(" last.")?;
        let (members, lead, trail): (usize, usize, usize) =
            (members.parse().ok()?, lead.parse().ok()?, trail.parse().ok()?);
        if head != header(members, lead, trail) {
            return None;
        }
        let opening: Vec<&str> = lines.by_ref().take(lead).collect();
        let closing: Vec<&str> = lines.by_ref().take(trail).collect();
        if opening.len() + closing.len() < lead + trail {
            return None;
        }
        let mut prompts = Vec::new();
        for number in 1..=members {
            let marked = lines.next()?;
            let own: usize = marked
                .strip_prefix('#')?
                .split_once(" (")?
                .1
                .strip_suffix(" lines)")?
                .parse()
                .ok()?;
            if marked != marker(number, own) {
                return None;
            }
            let body: Vec<&str> = lines.by_ref().take(own).collect();
            if body.len() < own {
                return None;
            }
            let prompt = opening.iter().chain(&body).chain(&closing).copied();
            prompts.push(Cow::Owned(prompt.collect::<Vec<_>>().join("\n")));
        }
        (lines.next() == Some(FOOTER) && lines.next().is_none()).then_some(ListRequest { prompts })
    }

    /// The answer to each member in `response`, in member order: the text
    /// after `n: ` on the first line numbered `n`, or `None` when no line
    /// answers member `n`. Any other line is ignored.
    pub fn answers<'r>(&self, response: &'r str) -> Vec<Option<&'r str>> {
        let mut answers = vec![None; self.prompts.len()];
        for line in response.split('\n') {
            let Some((number, answer)) = line.split_once(": ") else { continue };
            let Some(slot) = number
                .parse::<usize>()
                .ok()
                .and_then(|n| n.checked_sub(1))
                .and_then(|index| answers.get_mut(index))
            else {
                continue;
            };
            slot.get_or_insert(answer);
        }
        answers
    }

    /// The simulated model's response: member `n`'s answer, `answer(prompt)`,
    /// on a line `n: answer`. An answer that spans lines cannot be read back
    /// from one, so its line is left out and its member goes unanswered.
    pub(crate) fn respond(&self, answer: impl Fn(&str) -> String) -> String {
        let lines = self.prompts().enumerate().filter_map(|(index, prompt)| {
            let text = answer(prompt);
            (!text.contains('\n')).then(|| format!("{}: {text}", index + 1))
        });
        lines.collect::<Vec<_>>().join("\n")
    }
}

fn header(members: usize, lead: usize, trail: usize) -> String {
    format!("{HEADER} {members} prompts, {lead} shared lines first, {trail} last.")
}

fn marker(number: usize, own: usize) -> String {
    format!("#{number} ({own} lines)")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair_prompt(a: &str, b: &str) -> String {
        format!(
            "Please determine if the following two records refer to the same entity.\n\
             Record A: {a}\nRecord B: {b}\nRespond with exactly `yes` or `no`, nothing else."
        )
    }

    fn round_trip(prompts: &[String]) {
        let request = ListRequest::new(prompts);
        let text = request.render();
        let back = ListRequest::parse(&text).unwrap_or_else(|| panic!("unparsed:\n{text}"));
        assert_eq!(
            back.prompts().collect::<Vec<_>>(),
            prompts.iter().map(String::as_str).collect::<Vec<_>>(),
            "{text}"
        );
        assert_eq!(back, request);
    }

    #[test]
    fn pair_prompts_share_their_instruction_and_pin_once() {
        let prompts = vec![
            pair_prompt("name: Hoppy Badger; abv: 5.2%", "name: hoppy badgr"),
            pair_prompt("name: Stout Owl", "name: Pale Heron"),
            pair_prompt("name: Stout Owl", "name: Stout Owl Reserve"),
        ];
        let text = ListRequest::new(&prompts).render();
        assert_eq!(text.matches("refer to the same entity").count(), 1, "{text}");
        assert_eq!(text.matches("nothing else").count(), 1, "{text}");
        assert!(text.starts_with("Numbered request: 3 prompts, 1 shared lines first, 1 last.\n"));
        round_trip(&prompts);
    }

    #[test]
    fn bodies_with_colons_blank_lines_and_one_member_round_trip() {
        let cases: Vec<Vec<String>> = vec![
            vec![pair_prompt("a: 1; b: 2", "c: 3")],
            vec![
                "Same?\n\nRecord A: x: y\n\nRecord B: #2 (9 lines)\n".into(),
                "Same?\n\nRecord A: z\n".into(),
            ],
            vec!["".into(), "".into()],
            vec!["one line".into(), "one line".into()],
            vec!["Same?\n1: yes\nPin.".into(), "Same?\nPin.".into(), "Same?\n\n\nPin.".into()],
            vec!["Numbered request: nested\nRecord A: a".into(), "trailing newline\n".into()],
            vec![],
        ];
        for prompts in &cases {
            round_trip(prompts);
        }
    }

    #[test]
    fn truncated_and_foreign_text_is_rejected() {
        let prompts = vec![pair_prompt("name: x", "name: y"), pair_prompt("name: z", "name: w")];
        let text = ListRequest::new(&prompts).render();
        for cut in [text.len() - 1, text.rfind('\n').unwrap(), text.find("#2").unwrap() - 1] {
            assert_eq!(ListRequest::parse(&text[..cut]), None, "cut at {cut}");
        }
        let renumbered = text.replace("#2 (", "#3 (");
        assert_eq!(ListRequest::parse(&renumbered), None);
        let extra = format!("{text}\nRecord C: stray");
        assert_eq!(ListRequest::parse(&extra), None);
        for foreign in [
            "Numbered request:",
            "Numbered request: many prompts",
            "Summarize.\nText: Numbered request: 1 prompts, 0 shared lines first, 0 last.\n#1 (0 lines)",
            &pair_prompt("name: x", "name: y"),
        ] {
            assert_eq!(ListRequest::parse(foreign), None, "{foreign}");
        }
    }

    #[test]
    fn answers_are_read_by_number_and_missing_ones_are_none() {
        let prompts = vec!["a".to_string(), "b".into(), "c".into(), "d".into()];
        let request = ListRequest::new(&prompts);
        let answers = request.answers(
            "2: No, these are different: entities.\n1: yes\nchatter\n2: yes\n9: no\n0: no\n4: ",
        );
        assert_eq!(
            answers,
            vec![Some("yes"), Some("No, these are different: entities."), None, Some("")]
        );
        let respond =
            request.respond(
                |prompt| if prompt == "c" { "two\nlines".into() } else { format!("{prompt}!") },
            );
        assert_eq!(respond, "1: a!\n2: b!\n4: d!");
        assert_eq!(request.answers(&respond), vec![Some("a!"), Some("b!"), None, Some("d!")]);
    }
}
