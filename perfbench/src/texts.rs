//! Query texts the workloads run that the repository does not already
//! render, and the native oracles their answers are checked against.

use gsql_core::QueryOutput;
use pgraph::graph::{Graph, GraphBuilder, VertexId};
use pgraph::value::Value;

/// PageRank over Person–Knows. `Knows` is undirected in the SNB schema,
/// so the hop is written `-(Knows)-`: the library's directed
/// `-(Knows>)-` form is rejected for an undirected edge type. Scores are
/// returned in table `Scores(vid, score)`.
pub fn pagerank() -> String {
    r#"
CREATE QUERY PageRank (float maxChange, int maxIteration, float dampingFactor) {
  MaxAccum<float> @@maxDifference = 9999999.0;
  SumAccum<float> @received_score;
  SumAccum<float> @score = 1;
  AllV = {Person.*};
  WHILE @@maxDifference > maxChange LIMIT maxIteration DO
     @@maxDifference = 0;
     S = SELECT v
         FROM       AllV:v -(Knows)- Person:n
         ACCUM      n.@received_score += v.@score/v.outdegree('Knows')
         POST-ACCUM v.@score = 1-dampingFactor + dampingFactor * v.@received_score,
                    v.@received_score = 0,
                    @@maxDifference += abs(v.@score - v.@score');
  END;
  SELECT DISTINCT v.id() AS vid, v.@score AS score INTO Scores FROM Person:v;
}
"#
    .to_string()
}

/// Weakly connected components of Person–Knows by minimum-id label
/// propagation to fixpoint, over the undirected `-(Knows)-` hop. Labels
/// are returned in table `Components(vid, cc)`.
pub fn wcc() -> String {
    r#"
CREATE QUERY WCC () {
  MinAccum<int> @cc = 2147483647;
  OrAccum @@changed;
  AllV = {Person.*};
  Init = SELECT v FROM AllV:v POST_ACCUM v.@cc = v.id();
  @@changed = true;
  WHILE @@changed DO
    @@changed = false;
    S = SELECT u
        FROM  AllV:v -(Knows)- Person:u
        ACCUM u.@cc += v.@cc
        POST_ACCUM @@changed += u.@cc != u.@cc';
  END;
  SELECT DISTINCT v.id() AS vid, v.@cc AS cc INTO Components FROM Person:v;
}
"#
    .to_string()
}

/// The 1-hop write every `/mutate` sends: it sets a Person's
/// `creationDate`, an attribute no read of the serve mix returns.
pub fn touch_person() -> String {
    r#"
CREATE QUERY TouchPerson (int pid, datetime stamp) {
  UPDATE Person:p SET p.creationDate = stamp WHERE p.id == pid;
}
"#
    .to_string()
}

/// Ad-hoc text `k` of the serve mix: a Person profile lookup with the id
/// inline, so every `k` is a distinct text with its own plan-cache
/// entry. One shape for every text keeps the ad-hoc latency unimodal.
pub fn adhoc(k: usize, persons: usize) -> String {
    let pid = (k * 7919) % persons;
    format!(
        "CREATE QUERY adhoc{k} () {{\n  SELECT DISTINCT q.firstName, q.lastName, c.name AS city INTO Profile\n  \
         FROM Person:q -(LivesIn>)- City:c\n  WHERE q.id == {pid};\n}}\n"
    )
}

/// Vertex ids and Int attribute values of a result table's first two
/// columns, in row order.
fn table_pairs(out: &QueryOutput, table: &str) -> Result<Vec<(u32, Value)>, String> {
    let t = out
        .table(table)
        .ok_or_else(|| format!("no table `{table}`"))?;
    t.rows
        .iter()
        .map(|r| match (r.first(), r.get(1)) {
            (Some(Value::Int(v)), Some(x)) => Ok((*v as u32, x.clone())),
            _ => Err(format!("unexpected row {r:?} in `{table}`")),
        })
        .collect()
}

/// Checks a PageRank output against [`pgraph::algo::pagerank`] over
/// `Knows`, to a relative tolerance of 1e-9 per Person.
pub fn check_pagerank(
    g: &Graph,
    out: &QueryOutput,
    damping: f64,
    iters: usize,
) -> Result<(), String> {
    let knows = g
        .schema()
        .edge_type_id("Knows")
        .ok_or("no Knows edge type")?;
    let native = pgraph::algo::pagerank(g, knows, damping, 0.0, iters);
    let rows = table_pairs(out, "Scores")?;
    if rows.len() != persons(g).len() {
        return Err(format!(
            "PageRank returned {} rows for {} persons",
            rows.len(),
            persons(g).len()
        ));
    }
    for (vid, score) in rows {
        let got = score.as_f64().ok_or("non-numeric score")?;
        let want = native[vid as usize];
        if (got - want).abs() > 1e-9 * want.abs().max(1.0) {
            return Err(format!(
                "PageRank score of vertex {vid}: {got} != native {want}"
            ));
        }
    }
    Ok(())
}

fn persons(g: &Graph) -> &[VertexId] {
    let pt = g
        .schema()
        .vertex_type_id("Person")
        .expect("SNB schema has Person");
    g.vertices_of_type(pt)
}

/// The Person–Knows subgraph, Persons in id order, for the native WCC.
fn person_knows(g: &Graph) -> Graph {
    let mut b = GraphBuilder::new(g.schema().clone());
    let ps = persons(g);
    let mut local = vec![u32::MAX; g.vertex_count()];
    for (i, &p) in ps.iter().enumerate() {
        b.vertex("Person", &[]).expect("schema-valid vertex");
        local[p.0 as usize] = i as u32;
    }
    let knows = g
        .schema()
        .edge_type_id("Knows")
        .expect("SNB schema has Knows");
    for e in g.edges().filter(|&e| g.edge_type_of(e) == knows) {
        let (s, t) = g.edge_endpoints(e);
        let (s, t) = (VertexId(local[s.0 as usize]), VertexId(local[t.0 as usize]));
        b.edge("Knows", s, t, &[]).expect("schema-valid edge");
    }
    b.build()
}

/// Native component labels of every Person (by position in id order),
/// canonicalized to the smallest position in each component.
pub fn wcc_oracle(g: &Graph) -> Vec<u32> {
    pgraph::algo::weakly_connected_components(&person_knows(g)).0
}

/// Checks a WCC output against [`wcc_oracle`]: the same partition of
/// the Persons.
pub fn check_wcc(g: &Graph, out: &QueryOutput, oracle: &[u32]) -> Result<(), String> {
    let ps = persons(g);
    let rows = table_pairs(out, "Components")?;
    if rows.len() != ps.len() {
        return Err(format!(
            "WCC returned {} rows for {} persons",
            rows.len(),
            ps.len()
        ));
    }
    let pos = |vid: u32| {
        ps.binary_search(&VertexId(vid))
            .map_err(|_| format!("vertex {vid} is no Person"))
    };
    // The engine labels by vertex id; map each label to the smallest
    // position among its members, as the oracle does.
    let mut labelled = Vec::with_capacity(rows.len());
    for (vid, cc) in &rows {
        labelled.push((pos(*vid)?, cc.as_i64().ok_or("non-integer component")?));
    }
    let mut first: std::collections::HashMap<i64, usize> = std::collections::HashMap::new();
    for &(p, cc) in &labelled {
        first
            .entry(cc)
            .and_modify(|m| *m = (*m).min(p))
            .or_insert(p);
    }
    for &(p, cc) in &labelled {
        if first[&cc] as u32 != oracle[p] {
            return Err(format!(
                "WCC puts person #{p} with #{}, native with #{}",
                first[&cc], oracle[p]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsql_core::{lint::has_errors, parser::parse_query, Engine, PreparedQuery};

    fn small_snb() -> Graph {
        ldbc_snb::generate(ldbc_snb::SnbParams::new(0.05, 2024))
    }

    #[test]
    fn pagerank_and_wcc_compile_against_the_snb_schema() {
        let g = small_snb();
        let eng = Engine::new(&g);
        for text in [pagerank(), wcc()] {
            let q = parse_query(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert!(!has_errors(&eng.check(&q)), "lint errors in\n{text}");
            eng.explain(&q).unwrap_or_else(|e| panic!("{e}\n{text}"));
        }
    }

    #[test]
    fn directed_library_pagerank_is_rejected_on_undirected_knows() {
        let g = small_snb();
        let text = gsql_core::stdlib::pagerank("Person", "Knows");
        let args = [
            ("maxChange", Value::Double(0.0)),
            ("maxIteration", Value::Int(2)),
            ("dampingFactor", Value::Double(0.85)),
        ];
        assert!(Engine::new(&g).run_text(&text, &args).is_err());
    }

    #[test]
    fn pagerank_and_wcc_match_the_native_algorithms() {
        let g = small_snb();
        let eng = Engine::new(&g).with_parallelism(2);
        let args = [
            ("maxChange", Value::Double(0.0)),
            ("maxIteration", Value::Int(10)),
            ("dampingFactor", Value::Double(0.85)),
        ];
        let pr = eng
            .run_prepared(&PreparedQuery::prepare(&pagerank()).unwrap(), &args)
            .unwrap();
        check_pagerank(&g, &pr, 0.85, 10).unwrap();
        let cc = eng.run_text(&wcc(), &[]).unwrap();
        check_wcc(&g, &cc, &wcc_oracle(&g)).unwrap();
        // A wrong damping factor must not pass.
        assert!(check_pagerank(&g, &pr, 0.8, 10).is_err());
    }

    #[test]
    fn serve_texts_parse_and_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..1024 {
            let t = adhoc(k, 1000);
            parse_query(&t).unwrap_or_else(|e| panic!("{e}\n{t}"));
            assert!(seen.insert(t));
        }
        parse_query(&touch_person()).unwrap();
    }

    #[test]
    fn touch_person_updates_one_attribute() {
        let g = small_snb();
        let out = Engine::new(&g)
            .run_text(
                &touch_person(),
                &[("pid", Value::Int(3)), ("stamp", Value::DateTime(1))],
            )
            .unwrap();
        assert_eq!(out.mutations.len(), 1);
    }
}
